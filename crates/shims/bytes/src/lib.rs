//! Offline stand-in for the `bytes` crate, covering exactly the API subset
//! the `treep-net` codec uses: a growable write buffer ([`BytesMut`] +
//! [`BufMut`]) and little-endian cursor reads over `&[u8]` ([`Buf`]).
//!
//! Semantics match the real crate for this subset; in particular the `get_*`
//! methods panic when the buffer is too short, so callers must check
//! [`Buf::remaining`] first (the codec always does).

/// Growable byte buffer used for encoding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            inner: Vec::with_capacity(capacity),
        }
    }
}

/// The written bytes, without a copy.
impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Vec<u8> {
        b.inner
    }
}

/// A buffer that appends after `v`'s bytes, into its capacity.
impl From<Vec<u8>> for BytesMut {
    fn from(inner: Vec<u8>) -> BytesMut {
        BytesMut { inner }
    }
}

/// Write-side trait: append fixed-width little-endian integers and raw
/// slices.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16);
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Append a raw slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.inner.push(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.inner.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.inner.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.inner.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
}

/// Read-side trait: consume fixed-width little-endian integers from the
/// front of a buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Consume one byte. Panics when empty.
    fn get_u8(&mut self) -> u8;
    /// Consume a little-endian `u16`. Panics when too short.
    fn get_u16_le(&mut self) -> u16;
    /// Consume a little-endian `u32`. Panics when too short.
    fn get_u32_le(&mut self) -> u32;
    /// Consume a little-endian `u64`. Panics when too short.
    fn get_u64_le(&mut self) -> u64;
    /// Consume `dst.len()` bytes into `dst`. Panics when too short.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let (head, rest) = self.split_at(1);
        *self = rest;
        head[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        let (head, rest) = self.split_at(2);
        *self = rest;
        u16::from_le_bytes(head.try_into().expect("split_at(2)"))
    }

    fn get_u32_le(&mut self) -> u32 {
        let (head, rest) = self.split_at(4);
        *self = rest;
        u32::from_le_bytes(head.try_into().expect("split_at(4)"))
    }

    fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.split_at(8);
        *self = rest;
        u64::from_le_bytes(head.try_into().expect("split_at(8)"))
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, rest) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trip() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(7);
        buf.put_u16_le(0xBEEF);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(0x0123_4567_89AB_CDEF);
        buf.put_slice(b"xyz");
        let bytes = Vec::from(buf);
        let mut cursor: &[u8] = &bytes;
        assert_eq!(cursor.remaining(), 1 + 2 + 4 + 8 + 3);
        assert_eq!(cursor.get_u8(), 7);
        assert_eq!(cursor.get_u16_le(), 0xBEEF);
        assert_eq!(cursor.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(cursor.get_u64_le(), 0x0123_4567_89AB_CDEF);
        let mut tail = [0u8; 3];
        cursor.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"xyz");
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    #[should_panic]
    fn short_reads_panic() {
        let mut cursor: &[u8] = &[1, 2];
        let _ = cursor.get_u32_le();
    }
}
