//! A generation-tagged slab arena for per-node simulation state.
//!
//! The simulation's hot dispatch path resolves a node address on every
//! event. A `HashMap<NodeAddr, _>` pays a SipHash plus a probe sequence per
//! lookup; the arena replaces that with a dense `Vec` index. Handles carry a
//! **generation** so a stale handle — e.g. a timer armed by a node whose
//! slot has since been freed and reused — fails the generation check and
//! resolves to `None` instead of aliasing the slot's new occupant.
//!
//! Iteration order is **index order**, which is allocation order until slots
//! are reused. That makes arena sweeps (metrics, shutdown, trace dumps)
//! deterministic by construction, where `HashMap` iteration had to be
//! collected and sorted on every use.
//!
//! [`prefetch`] — the crate's one `unsafe` block — lives here too: the
//! engine hints the slot of the next event's node into cache with
//! [`Arena::prefetch`], and protocols hint their own per-node tables
//! through [`crate::Protocol::prefetch`].

/// Ask the CPU to start loading every cache line of `items` into its
/// caches, and return at once. A hint: it reads nothing the caller can
/// observe and changes no result, only how long the next access to `items`
/// waits for memory. A no-op on targets other than x86-64.
#[inline]
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

/// A generational index into an [`Arena`].
///
/// `index` addresses the slot; `generation` must match the slot's current
/// generation for the handle to resolve. The niche of `u32` bounds an arena
/// at ~4 × 10⁹ live slots — three orders of magnitude beyond the
/// million-node target — while keeping the handle 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle {
    index: u32,
    generation: u32,
}

impl Handle {
    /// The slot index this handle addresses (valid only while the
    /// generation matches; prefer [`Arena::get`]).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The generation this handle was minted at.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

enum Slot<T> {
    /// Slot holds a live value minted at this generation.
    Occupied { generation: u32, value: T },
    /// Slot is free; the next insert here mints `generation + 1`.
    Vacant { generation: u32 },
}

/// A slab of `T` addressed by dense, generation-tagged handles.
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// An empty arena with room for `capacity` values before reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Make room for `additional` more values without reallocating.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.slots.reserve_exact(additional);
    }

    /// Number of values the arena holds before it reallocates.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value, reusing a freed slot when one exists. Returns the
    /// handle that addresses it.
    pub fn insert(&mut self, value: T) -> Handle {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            let generation = match slot {
                Slot::Vacant { generation } => *generation + 1,
                Slot::Occupied { .. } => unreachable!("free list pointed at a live slot"),
            };
            *slot = Slot::Occupied { generation, value };
            Handle { index, generation }
        } else {
            let index = u32::try_from(self.slots.len()).expect("arena exceeds u32 indices");
            self.slots.push(Slot::Occupied {
                generation: 0,
                value,
            });
            Handle {
                index,
                generation: 0,
            }
        }
    }

    /// Resolve a handle. Returns `None` when the slot was freed (or freed
    /// and reused) since the handle was minted.
    pub fn get(&self, handle: Handle) -> Option<&T> {
        match self.slots.get(handle.index as usize)? {
            Slot::Occupied { generation, value } if *generation == handle.generation => Some(value),
            _ => None,
        }
    }

    /// Mutable variant of [`Arena::get`].
    pub fn get_mut(&mut self, handle: Handle) -> Option<&mut T> {
        match self.slots.get_mut(handle.index as usize)? {
            Slot::Occupied { generation, value } if *generation == handle.generation => Some(value),
            _ => None,
        }
    }

    /// Remove and return the value a handle addresses, freeing its slot for
    /// reuse. Stale handles (wrong generation) remove nothing.
    pub fn remove(&mut self, handle: Handle) -> Option<T> {
        let slot = self.slots.get_mut(handle.index as usize)?;
        match slot {
            Slot::Occupied { generation, .. } if *generation == handle.generation => {
                let generation = *generation;
                let old = std::mem::replace(slot, Slot::Vacant { generation });
                self.free.push(handle.index);
                self.len -= 1;
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    Slot::Vacant { .. } => unreachable!("matched occupied above"),
                }
            }
            _ => None,
        }
    }

    /// Start loading the slot `handle` addresses into cache (see
    /// [`prefetch`]); nothing for a handle past the end. The generation is
    /// not checked — that would wait for the very line being fetched.
    #[inline]
    pub fn prefetch(&self, handle: Handle) {
        if let Some(slot) = self.slots.get(handle.index as usize) {
            prefetch(std::slice::from_ref(slot));
        }
    }

    /// True when the handle currently resolves.
    pub fn contains(&self, handle: Handle) -> bool {
        self.get(handle).is_some()
    }

    /// Iterate live values in index order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Slot::Occupied { generation, value } => Some((
                    Handle {
                        index: i as u32,
                        generation: *generation,
                    },
                    value,
                )),
                Slot::Vacant { .. } => None,
            })
    }

    /// Iterate live values mutably in index order (deterministic).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Handle, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Slot::Occupied { generation, value } => Some((
                    Handle {
                        index: i as u32,
                        generation: *generation,
                    },
                    value,
                )),
                Slot::Vacant { .. } => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut a = Arena::new();
        let h1 = a.insert("one");
        let h2 = a.insert("two");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(h1), Some(&"one"));
        assert_eq!(a.get(h2), Some(&"two"));
        *a.get_mut(h1).unwrap() = "uno";
        assert_eq!(a.get(h1), Some(&"uno"));
    }

    #[test]
    fn remove_frees_and_stales_handles() {
        let mut a = Arena::new();
        let h = a.insert(7u32);
        assert_eq!(a.remove(h), Some(7));
        assert!(a.is_empty());
        assert_eq!(a.get(h), None, "freed handle must not resolve");
        assert_eq!(a.remove(h), None, "double-remove is a no-op");
    }

    #[test]
    fn reuse_bumps_generation() {
        let mut a = Arena::new();
        let h1 = a.insert(1u32);
        a.remove(h1);
        let h2 = a.insert(2u32);
        // Slot is reused...
        assert_eq!(h2.index(), h1.index());
        // ...but the old handle is stale: the dead node's timer drops
        // instead of firing on the new occupant.
        assert_ne!(h2.generation(), h1.generation());
        assert_eq!(a.get(h1), None);
        assert_eq!(a.get(h2), Some(&2));
        assert!(!a.contains(h1));
        assert!(a.contains(h2));
    }

    #[test]
    fn iteration_is_index_ordered() {
        let mut a = Arena::new();
        let handles: Vec<Handle> = (0..10u32).map(|i| a.insert(i)).collect();
        a.remove(handles[3]);
        a.remove(handles[7]);
        let seen: Vec<u32> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![0, 1, 2, 4, 5, 6, 8, 9]);
        // Mutable iteration sees the same order.
        for (_, v) in a.iter_mut() {
            *v += 100;
        }
        let seen: Vec<u32> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec![100, 101, 102, 104, 105, 106, 108, 109]);
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut a = Arena::new();
        let hs: Vec<Handle> = (0..4u32).map(|i| a.insert(i)).collect();
        a.remove(hs[1]);
        a.remove(hs[2]);
        let h = a.insert(99);
        assert_eq!(h.index(), 2, "last freed slot is reused first");
        assert_eq!(a.len(), 3);
    }
}
