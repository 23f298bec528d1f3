//! [`Bytes`]: the immutable payload every message carries.
//!
//! A payload is shared, never copied, once it exists: the fault layer's
//! duplicates, the send log and a decoded envelope's payload window all
//! point into one `Arc<[u8]>`. `From<Vec<u8>>` is **not** a move:
//! `Arc::<[u8]>::from(vec)` puts the reference counts in front of the
//! bytes, so it allocates a new block, copies every byte and frees the
//! `Vec`. Each finished [`crate::WireWriter`] payload costs one allocation
//! and one memcpy of its length.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable window over a shared, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty payload.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// A payload holding a copy of `bytes`.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// The sub-window `range` of this window, sharing its buffer.
    ///
    /// # Panics
    /// If `range` does not lie within `0..self.len()`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} of {} bytes", self.len());
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    /// Copies `v` into a fresh `Arc<[u8]>` (see the module docs).
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: Arc::from(v), start: 0, end }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.escape_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_and_slice_windows() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(Arc::ptr_eq(&b.data, &c.data));
        let s = b.slice(1..3);
        assert_eq!(&*s, &[2, 3]);
        assert!(Arc::ptr_eq(&b.data, &s.data));
        // A window of a window is relative to it.
        assert_eq!(&*s.slice(1..), &[3]);
        assert_eq!(&*s.slice(..=0), &[2]);
        assert_eq!(b.slice(..), b);
        assert!(b.slice(4..).is_empty());
    }

    #[test]
    #[should_panic]
    fn a_slice_past_the_window_panics() {
        let b = Bytes::from(vec![1, 2, 3, 4]).slice(1..3);
        let _ = b.slice(1..3);
    }

    #[test]
    fn equality_is_by_content_not_by_buffer() {
        let whole = Bytes::from(b"abcabc".to_vec());
        assert_eq!(whole.slice(0..3), whole.slice(3..6));
        assert_ne!(whole.slice(0..3), whole.slice(1..4));
        assert_eq!(Bytes::from_static(b"abc"), whole.slice(..3));
        assert_eq!(format!("{:?}", whole.slice(..3)), "b\"abc\"");
        assert_eq!(format!("{:?}", Bytes::from(vec![0, b'"'])), "b\"\\x00\\\"\"");
    }

    #[test]
    fn the_empty_value() {
        for empty in [Bytes::new(), Bytes::default(), Bytes::from_static(b""), Bytes::from(vec![9]).slice(1..)] {
            assert!(empty.is_empty());
            assert_eq!(empty.len(), 0);
            assert_eq!(empty, Bytes::new());
            assert_eq!(&*empty, &[] as &[u8]);
        }
    }
}
