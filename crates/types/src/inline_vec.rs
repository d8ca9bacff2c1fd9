//! A fixed-capacity, stack-allocated vector for bounded hot-path data.
//!
//! The ECMP resolver produces paths whose length is bounded by the Clos
//! structure (a server-to-server path crosses at most 8 switches), so the
//! per-probe `Path` never needs the heap. [`InlineVec`] is the minimal
//! safe container for that: a `[T; N]` plus a length, with slice access
//! via `Deref`. Unlike `arrayvec` it requires `T: Copy + Default` so it
//! can stay entirely within safe Rust (`pingmesh-types` forbids unsafe).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// A vector of at most `N` elements stored inline (no heap allocation).
///
/// ```
/// use pingmesh_types::InlineVec;
///
/// let mut v: InlineVec<u32, 4> = InlineVec::new();
/// v.push(7);
/// v.push(9);
/// assert_eq!(v.len(), 2);
/// assert_eq!(&v[..], &[7, 9]);
/// assert_eq!(v.iter().sum::<u32>(), 16);
/// ```
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    buf: [T; N],
    len: u32,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector.
    #[inline]
    pub fn new() -> Self {
        Self {
            buf: [T::default(); N],
            len: 0,
        }
    }

    /// Builds from a slice.
    ///
    /// # Panics
    /// Panics if `slice.len() > N`.
    pub fn from_slice(slice: &[T]) -> Self {
        let mut v = Self::new();
        for &x in slice {
            v.push(x);
        }
        v
    }
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// Appends an element.
    ///
    /// # Panics
    /// Panics if the vector is already at capacity `N`.
    #[inline]
    pub fn push(&mut self, value: T) {
        assert!(
            (self.len as usize) < N,
            "InlineVec overflow: capacity {N} exceeded"
        );
        self.buf[self.len as usize] = value;
        self.len += 1;
    }

    /// Number of live elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity (the const parameter `N`).
    #[inline]
    pub fn capacity(&self) -> usize {
        N
    }

    /// Removes all elements (capacity is inline, so this is just a length
    /// reset).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The live elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.buf[..self.len as usize]
    }

    /// The live elements as a mutable slice.
    #[inline]
    fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf[..self.len as usize]
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + PartialEq, const N: usize> PartialEq<[T]> for InlineVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_len_and_slice_access() {
        let mut v: InlineVec<u8, 3> = InlineVec::new();
        assert!(v.is_empty());
        assert_eq!(v.capacity(), 3);
        v.push(1);
        v.push(2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.as_slice(), &[1, 2]);
        assert_eq!(v.first(), Some(&1));
        assert_eq!(v.last(), Some(&2));
        assert!(v.contains(&2));
        assert!(!v.contains(&9));
    }

    #[test]
    #[should_panic(expected = "InlineVec overflow")]
    fn overflow_panics() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        v.push(3);
    }

    #[test]
    fn equality_ignores_dead_capacity() {
        let mut a: InlineVec<u8, 4> = InlineVec::new();
        let mut b: InlineVec<u8, 4> = InlineVec::new();
        a.push(9);
        a.clear();
        assert_eq!(a, b);
        a.push(1);
        b.push(1);
        assert_eq!(a, b);
        assert_eq!(a, vec![1u8]);
        assert_eq!(a, [1u8][..]);
        b.push(2);
        assert_ne!(a, b);
    }

    #[test]
    fn from_slice_and_iter_roundtrip() {
        let v: InlineVec<u32, 8> = InlineVec::from_slice(&[5, 6, 7]);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![5, 6, 7]);
        let w: InlineVec<u32, 8> = (0..4).collect();
        assert_eq!(w, vec![0, 1, 2, 3]);
    }

    #[test]
    fn copy_semantics() {
        let mut a: InlineVec<u8, 4> = InlineVec::from_slice(&[1, 2]);
        let b = a; // Copy, not move
        a.push(3);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn mutable_slice_access() {
        let mut v: InlineVec<u8, 4> = InlineVec::from_slice(&[1, 2, 3]);
        v.as_mut_slice()[1] = 9;
        v[2] = 8;
        assert_eq!(v, vec![1, 9, 8]);
        assert_eq!(format!("{v:?}"), "[1, 9, 8]");
    }
}
