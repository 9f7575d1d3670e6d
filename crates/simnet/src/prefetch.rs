//! [`prefetch`] — the crate's one `unsafe` block. The engine hints the node
//! slot of the next event into cache with it, and protocols hint their own
//! per-node tables and the next message's heap parts through
//! [`crate::Protocol::prefetch`].

/// Ask the CPU to start loading every cache line of `items` into its
/// caches, and return at once. A hint: it reads nothing the caller can
/// observe and changes no result, only how long the next access to `items`
/// waits for memory. A no-op on targets other than x86-64.
#[inline]
#[allow(unsafe_code)]
pub fn prefetch<T>(items: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let start = items.as_ptr().cast::<i8>();
        let skew = start as usize % LINE;
        for offset in (0..std::mem::size_of_val(items) + skew).step_by(LINE) {
            let line = start.wrapping_sub(skew).wrapping_add(offset);
            // SAFETY: a prefetch is a hint that never faults and never
            // writes, whatever the address; `line` lies in a cache line that
            // `items` overlaps anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = items;
}
