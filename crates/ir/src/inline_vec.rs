//! A zero-dependency small-vector for IR entity payloads.
//!
//! [`InlineVec<T, N>`] stores up to `N` elements inline (no heap
//! allocation) and spills to a heap `Vec<T>` beyond that. `OperationData`
//! uses it for every per-op list, with `N` tuned per field from corpus
//! statistics, so constructing a typical operation touches the allocator
//! zero times. Spill buffers can be harvested with
//! [`InlineVec::take_spill`] and handed back through the pooled
//! constructors, which is how the context recycles erased-op storage
//! instead of freeing it (see `Context`'s spill pool).
//!
//! `T: Copy` is required: every payload element in the IR is a `Copy`
//! handle or a pair of them, and the bound keeps the `MaybeUninit` inline
//! buffer trivially sound (no drops, plain bitwise clones).

use std::mem::MaybeUninit;

/// Sentinel stored in `len` while the contents live in `spill`.
const SPILLED: u32 = u32::MAX;

/// A small-vector: inline up to `N` elements, heap-spilled beyond.
///
/// Derefs to `&[T]` / `&mut [T]`, so slice APIs (indexing, iteration,
/// sorting) work directly.
pub struct InlineVec<T: Copy, const N: usize> {
    /// Number of initialized inline elements, or [`SPILLED`].
    len: u32,
    inline: [MaybeUninit<T>; N],
    /// Heap storage once the inline capacity is exceeded. Empty and
    /// unallocated while inline.
    spill: Vec<T>,
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// An empty vector; allocates nothing.
    #[inline]
    pub const fn new() -> Self {
        InlineVec { len: 0, inline: [MaybeUninit::uninit(); N], spill: Vec::new() }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        if self.len == SPILLED { self.spill.len() } else { self.len as usize }
    }

    /// Returns `true` if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if the contents have spilled to the heap.
    #[inline]
    pub fn is_spilled(&self) -> bool {
        self.len == SPILLED
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        if self.len == SPILLED {
            &self.spill
        } else {
            // SAFETY: the first `len` inline elements are initialized by
            // construction (`len` only grows through `push`/pooled fills).
            unsafe {
                std::slice::from_raw_parts(self.inline.as_ptr().cast::<T>(), self.len as usize)
            }
        }
    }

    /// The elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.len == SPILLED {
            &mut self.spill
        } else {
            // SAFETY: as in `as_slice`; length never changes through the
            // returned slice.
            unsafe {
                std::slice::from_raw_parts_mut(
                    self.inline.as_mut_ptr().cast::<T>(),
                    self.len as usize,
                )
            }
        }
    }

    /// Appends `value`, spilling to a fresh heap buffer when the inline
    /// capacity is exceeded.
    pub fn push(&mut self, value: T) {
        if self.len == SPILLED {
            self.spill.push(value);
        } else if (self.len as usize) < N {
            self.inline[self.len as usize].write(value);
            self.len += 1;
        } else {
            self.spill_with_capacity(N + 1);
            self.spill.push(value);
        }
    }

    /// Appends `value`, drawing the spill buffer from `pool` when the
    /// push crosses the inline capacity.
    pub fn push_pooled(&mut self, value: T, pool: &mut Vec<Vec<T>>) {
        if self.len != SPILLED && (self.len as usize) >= N {
            let recycled = pool.pop().unwrap_or_default();
            self.spill_into(recycled);
        }
        self.push(value);
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == SPILLED {
            self.spill.pop()
        } else if self.len == 0 {
            None
        } else {
            self.len -= 1;
            // SAFETY: slot `len` was initialized before the decrement.
            Some(unsafe { self.inline[self.len as usize].assume_init() })
        }
    }

    /// Removes and returns the element at `index`, shifting the tail left.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> T {
        if self.len == SPILLED {
            return self.spill.remove(index);
        }
        let len = self.len as usize;
        assert!(index < len, "InlineVec::remove index out of bounds");
        // SAFETY: elements `index..len` are initialized; plain Copy moves.
        let value = unsafe { self.inline[index].assume_init() };
        for i in index..len - 1 {
            self.inline[i] = self.inline[i + 1];
        }
        self.len -= 1;
        value
    }

    /// Shortens to `len` elements; no-op when already shorter.
    pub fn truncate(&mut self, len: usize) {
        if self.len == SPILLED {
            self.spill.truncate(len);
        } else if len < self.len as usize {
            self.len = len as u32;
        }
    }

    /// Removes every element. Spilled capacity is kept for reuse.
    pub fn clear(&mut self) {
        if self.len == SPILLED {
            self.spill.clear();
        } else {
            self.len = 0;
        }
    }

    /// Builds a vector of `len` copies of `fill`, drawing the spill buffer
    /// (if one is needed) from `pool` instead of the allocator.
    pub fn with_len_pooled(len: usize, fill: T, pool: &mut Vec<Vec<T>>) -> Self {
        let mut v = Self::new();
        if len <= N {
            for i in 0..len {
                v.inline[i].write(fill);
            }
            v.len = len as u32;
        } else {
            let mut buf = pool.pop().unwrap_or_default();
            buf.clear();
            buf.resize(len, fill);
            v.spill = buf;
            v.len = SPILLED;
        }
        v
    }

    /// Detaches the spill buffer for recycling, leaving `self` empty.
    ///
    /// Returns `None` when the contents were inline (nothing to recycle).
    pub fn take_spill(&mut self) -> Option<Vec<T>> {
        if self.len == SPILLED {
            self.len = 0;
            Some(std::mem::take(&mut self.spill))
        } else {
            self.len = 0;
            None
        }
    }

    /// Moves the inline contents into `buf` and switches to spilled mode.
    fn spill_into(&mut self, mut buf: Vec<T>) {
        debug_assert_ne!(self.len, SPILLED);
        buf.clear();
        buf.extend_from_slice(self.as_slice());
        self.spill = buf;
        self.len = SPILLED;
    }

    /// Spills into a freshly allocated buffer of at least `cap` capacity.
    fn spill_with_capacity(&mut self, cap: usize) {
        self.spill_into(Vec::with_capacity(cap));
    }
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        // Bitwise-copy the inline buffer (sound: `T: Copy`, and slots past
        // `len` are never read); deep-clone the spill.
        InlineVec { len: self.len, inline: self.inline, spill: self.spill.clone() }
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for value in iter {
            self.push(value);
        }
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        v.extend(iter);
        v
    }
}

impl<T: Copy, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    /// Adopts `vec`. Large inputs keep the buffer as spill (no copy);
    /// small inputs are copied inline and the buffer is dropped.
    fn from(vec: Vec<T>) -> Self {
        if vec.len() > N {
            InlineVec { len: SPILLED, inline: [MaybeUninit::uninit(); N], spill: vec }
        } else {
            let mut v = Self::new();
            for (i, value) in vec.into_iter().enumerate() {
                v.inline[i].write(value);
                v.len += 1;
                debug_assert!(i < N);
            }
            v
        }
    }
}

impl<T: Copy, const N: usize, const M: usize> From<[T; M]> for InlineVec<T, N> {
    /// Copies `array`; allocates only when `M` exceeds the inline capacity.
    fn from(array: [T; M]) -> Self {
        array.into_iter().collect()
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
    fn inline_then_spill() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        assert!(!v.is_spilled());
        assert_eq!(&*v, &[1, 2]);
        v.push(3);
        assert!(v.is_spilled());
        assert_eq!(&*v, &[1, 2, 3]);
        assert_eq!(v.pop(), Some(3));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn remove_and_truncate() {
        let mut v: InlineVec<u32, 4> = (0..4).collect();
        assert_eq!(v.remove(1), 1);
        assert_eq!(&*v, &[0, 2, 3]);
        v.truncate(1);
        assert_eq!(&*v, &[0]);
        let mut s: InlineVec<u32, 2> = (0..5).collect();
        assert!(s.is_spilled());
        assert_eq!(s.remove(0), 0);
        s.truncate(2);
        assert_eq!(&*s, &[1, 2]);
    }

    #[test]
    fn pooled_round_trip() {
        let mut pool: Vec<Vec<u32>> = vec![Vec::with_capacity(64)];
        let mut v: InlineVec<u32, 1> = InlineVec::with_len_pooled(8, 7, &mut pool);
        assert!(pool.is_empty(), "pooled constructor drew the recycled buffer");
        assert!(v.is_spilled());
        assert_eq!(v.len(), 8);
        assert!(v.iter().all(|&x| x == 7));
        let buf = v.take_spill().expect("spill harvested");
        assert!(buf.capacity() >= 64, "recycled capacity survives the round trip");
        assert!(v.is_empty());
    }

    #[test]
    fn push_pooled_uses_recycled_buffer() {
        let mut pool: Vec<Vec<u32>> = vec![Vec::with_capacity(16)];
        let mut v: InlineVec<u32, 1> = InlineVec::new();
        v.push_pooled(1, &mut pool);
        assert!(!v.is_spilled());
        v.push_pooled(2, &mut pool);
        assert!(v.is_spilled());
        assert!(pool.is_empty());
        assert_eq!(&*v, &[1, 2]);
    }

    #[test]
    fn from_vec_and_iter() {
        let small: InlineVec<u32, 4> = vec![1, 2].into();
        assert!(!small.is_spilled());
        assert_eq!(&*small, &[1, 2]);
        let big: InlineVec<u32, 1> = vec![1, 2, 3].into();
        assert!(big.is_spilled());
        assert_eq!(&*big, &[1, 2, 3]);
        let collected: InlineVec<u32, 2> = (0..3).collect();
        assert_eq!(&*collected, &[0, 1, 2]);
    }

    #[test]
    fn clone_and_eq() {
        let v: InlineVec<u32, 2> = (0..5).collect();
        let w = v.clone();
        assert_eq!(v, w);
        let inline: InlineVec<u32, 8> = (0..5).collect();
        assert_eq!(v.as_slice(), inline.as_slice());
    }

    #[test]
    fn slice_apis_via_deref() {
        let mut v: InlineVec<u32, 4> = vec![3, 1, 2].into();
        v.sort_unstable();
        assert_eq!(&*v, &[1, 2, 3]);
        assert_eq!(v[1], 2);
        v[1] = 9;
        assert_eq!(v.iter().copied().max(), Some(9));
    }
}
