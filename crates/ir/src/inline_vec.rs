//! A zero-dependency small-vector for IR entity payloads.
//!
//! [`InlineVec<T, N>`] stores up to `N` elements inline (no heap
//! allocation) and spills to a heap buffer beyond that. `OperationData`
//! uses it for every per-op list, with `N` tuned per field from corpus
//! statistics, so constructing a typical operation touches the allocator
//! zero times. Spill buffers can be harvested with
//! [`InlineVec::take_spill`] and handed back through the pooled
//! constructors, which is how the context recycles erased-op storage
//! instead of freeing it (see `Context`'s spill pool).
//!
//! **Layout.** A `u32` length, a `u32` capacity that is 0 while the
//! elements are inline, and a union of the `N` inline slots with the heap
//! pointer. A spilled list therefore costs no header bytes beyond the
//! inline slots: `InlineVec<Value, 3>` is 48 B, where a length, three
//! slots and a separate `Vec` header took 64 B. `len()` is a field read,
//! and slice access picks the inline slots or the heap pointer by one
//! test of the capacity.
//!
//! The heap buffer is always a `Vec<T>` taken apart: it is rebuilt from
//! pointer, length and capacity only to grow it, to hand it out through
//! [`InlineVec::take_spill`], or to drop it. Push, pop, remove, truncate
//! and clear work on the raw storage directly, inline or spilled alike.
//! Lengths and capacities are `u32`; a list past `u32::MAX` elements
//! panics rather than wrap.
//!
//! `T: Copy` is required: every payload element in the IR is a `Copy`
//! handle or a pair of them, and the bound keeps the `MaybeUninit` inline
//! buffer trivially sound (no drops, plain bitwise clones). Zero-sized
//! element types are rejected at compile time once they would spill.
//!
//! `crates/ir/tests/inline_vec_model.rs` checks every method against a
//! plain `Vec<T>` over seeded random sequences, across the inline/spilled
//! boundary in both directions.

use std::mem::{ManuallyDrop, MaybeUninit};
use std::ptr::NonNull;

/// A small-vector: inline up to `N` elements, heap-spilled beyond.
///
/// Derefs to `&[T]` / `&mut [T]`, so slice APIs (indexing, iteration,
/// sorting) work directly.
pub struct InlineVec<T: Copy, const N: usize> {
    /// Number of initialized elements, inline or spilled.
    len: u32,
    /// Capacity of the heap buffer in `data.heap`, or 0 while the
    /// elements live in `data.inline`.
    cap: u32,
    data: Data<T, N>,
}

/// The storage: which field is live is decided by `InlineVec::cap`.
union Data<T: Copy, const N: usize> {
    inline: [MaybeUninit<T>; N],
    heap: NonNull<T>,
}

// SAFETY: `len` and `cap` are plain integers. `data` holds either `N`
// inline `T`s, owned as a `[T; N]` would own them, or the pointer of a
// `Vec<T>` that this vector alone owns and never shares with another, so
// it owns the heap elements as that `Vec<T>` would. Sending the vector
// therefore only sends `T`s.
unsafe impl<T: Copy + Send, const N: usize> Send for InlineVec<T, N> {}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// An empty vector; allocates nothing.
    #[inline]
    pub const fn new() -> Self {
        InlineVec { len: 0, cap: 0, data: Data { inline: [MaybeUninit::uninit(); N] } }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if the contents have spilled to the heap.
    #[inline]
    pub fn is_spilled(&self) -> bool {
        self.cap != 0
    }

    /// Elements the active storage holds before a push must grow it.
    #[inline]
    fn capacity(&self) -> usize {
        if self.cap == 0 { N } else { self.cap as usize }
    }

    /// The first slot of the active storage.
    #[inline]
    fn as_ptr(&self) -> *const T {
        if self.cap == 0 {
            (&raw const self.data.inline).cast::<T>()
        } else {
            // SAFETY: `cap != 0`, so `heap` is the live field.
            unsafe { self.data.heap.as_ptr() }
        }
    }

    /// The first slot of the active storage, for writing.
    #[inline]
    fn as_mut_ptr(&mut self) -> *mut T {
        if self.cap == 0 {
            (&raw mut self.data.inline).cast::<T>()
        } else {
            // SAFETY: `cap != 0`, so `heap` is the live field.
            unsafe { self.data.heap.as_ptr() }
        }
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: the first `len` slots of the active storage are
        // initialized: every path that raises `len` writes them first.
        unsafe { std::slice::from_raw_parts(self.as_ptr(), self.len()) }
    }

    /// The elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as in `as_slice`; the length cannot change through the
        // returned slice.
        unsafe { std::slice::from_raw_parts_mut(self.as_mut_ptr(), self.len()) }
    }

    /// Appends `value`, spilling to a fresh heap buffer when the inline
    /// capacity is exceeded.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.len() == self.capacity() {
            self.grow();
        }
        // SAFETY: `len < capacity()` now, so slot `len` lies inside the
        // active storage.
        unsafe { self.as_mut_ptr().add(self.len()).write(value) };
        self.len += 1;
    }

    /// Appends `value`, drawing the spill buffer from `pool` when the
    /// push crosses the inline capacity.
    pub fn push_pooled(&mut self, value: T, pool: &mut Vec<Vec<T>>) {
        if self.cap == 0 && self.len() == N {
            let recycled = pool.pop().unwrap_or_default();
            self.spill_into(recycled);
        }
        self.push(value);
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // SAFETY: slot `len` was initialized before the decrement.
        Some(unsafe { self.as_ptr().add(self.len()).read() })
    }

    /// Removes and returns the element at `index`, shifting the tail left.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> T {
        let len = self.len();
        assert!(index < len, "InlineVec::remove index {index} out of bounds (len {len})");
        let base = self.as_mut_ptr();
        // SAFETY: `index < len`, so slots `index..len` are initialized;
        // `ptr::copy` allows the overlapping shift of the tail.
        let value = unsafe {
            let value = base.add(index).read();
            std::ptr::copy(base.add(index + 1), base.add(index), len - index - 1);
            value
        };
        self.len -= 1;
        value
    }

    /// Shortens to `len` elements; no-op when already shorter.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.len = len as u32;
        }
    }

    /// Removes every element. Spilled capacity is kept for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Builds a vector of `len` copies of `fill`, drawing the spill buffer
    /// (if one is needed) from `pool` instead of the allocator.
    pub fn with_len_pooled(len: usize, fill: T, pool: &mut Vec<Vec<T>>) -> Self {
        let mut v = Self::new();
        if len <= N {
            let base = v.as_mut_ptr();
            for i in 0..len {
                // SAFETY: `i < len <= N`, an inline slot.
                unsafe { base.add(i).write(fill) };
            }
            v.len = len as u32;
        } else {
            let mut buf = pool.pop().unwrap_or_default();
            buf.clear();
            buf.resize(len, fill);
            v.set_heap(buf);
        }
        v
    }

    /// Detaches the spill buffer for recycling, leaving `self` empty.
    ///
    /// Returns `None` when the contents were inline (nothing to recycle).
    pub fn take_spill(&mut self) -> Option<Vec<T>> {
        let len = std::mem::take(&mut self.len) as usize;
        let cap = std::mem::take(&mut self.cap) as usize;
        if cap == 0 {
            return None;
        }
        // SAFETY: `cap` was not 0, so `heap`, `len` and `cap` were the
        // pointer, length and capacity of a `Vec<T>` that `set_heap` took
        // apart (`len` only moved within `0..=cap` since, over initialized
        // slots). Zeroing `cap` above handed ownership to the result.
        Some(unsafe { Vec::from_raw_parts(self.data.heap.as_ptr(), len, cap) })
    }

    /// A copy of `slice`: inline when it fits, else one exactly sized
    /// heap buffer.
    fn from_slice(slice: &[T]) -> Self {
        if slice.len() > N {
            return Self::from(slice.to_vec());
        }
        let mut v = Self::new();
        // SAFETY: `slice.len() <= N` inline slots; a fresh vector cannot
        // overlap `slice`.
        unsafe { std::ptr::copy_nonoverlapping(slice.as_ptr(), v.as_mut_ptr(), slice.len()) };
        v.len = slice.len() as u32;
        v
    }

    /// Grows a full vector: inline contents spill to a fresh buffer of
    /// `N + 1` slots, a full heap buffer grows the way `Vec::push` grows.
    #[cold]
    fn grow(&mut self) {
        if self.cap == 0 {
            self.spill_into(Vec::with_capacity(N + 1));
        } else {
            let mut heap = self.take_spill().expect("a heap buffer while spilled");
            heap.reserve(1);
            self.set_heap(heap);
        }
    }

    /// Moves the inline contents into `buf`, with room for one more
    /// element, and switches to spilled mode.
    fn spill_into(&mut self, mut buf: Vec<T>) {
        debug_assert_eq!(self.cap, 0, "already spilled");
        buf.clear();
        buf.reserve(self.len() + 1);
        buf.extend_from_slice(self.as_slice());
        self.set_heap(buf);
    }

    /// Takes `vec` apart into the spilled representation, replacing the
    /// inline contents. `self` must not hold a heap buffer, or it leaks.
    ///
    /// # Panics
    ///
    /// Panics if `vec`'s capacity exceeds `u32::MAX`.
    fn set_heap(&mut self, vec: Vec<T>) {
        const { assert!(size_of::<T>() != 0, "InlineVec cannot spill zero-sized elements") };
        debug_assert_eq!(self.cap, 0, "heap buffer would leak");
        // `len <= capacity`, so one check covers both; `vec` still drops
        // normally if it fails.
        let cap = u32::try_from(vec.capacity()).expect("InlineVec capacity exceeds u32::MAX");
        // Every caller hands over room for at least one element. A zero
        // capacity would only read back as an empty inline list.
        debug_assert_ne!(cap, 0, "spilled buffer without capacity");
        let mut vec = ManuallyDrop::new(vec);
        self.len = vec.len() as u32;
        self.cap = cap;
        // SAFETY: a `Vec`'s pointer is never null.
        self.data.heap = unsafe { NonNull::new_unchecked(vec.as_mut_ptr()) };
    }
}

impl<T: Copy, const N: usize> Drop for InlineVec<T, N> {
    fn drop(&mut self) {
        drop(self.take_spill());
    }
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> Clone for InlineVec<T, N> {
    /// Copies the elements: inline when they fit, else into one exactly
    /// sized heap buffer.
    fn clone(&self) -> Self {
        Self::from_slice(self)
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
            let mut v = Self::new();
            v.set_heap(vec);
            v
        } else {
            Self::from_slice(&vec)
        }
    }
}

impl<T: Copy, const N: usize, const M: usize> From<[T; M]> for InlineVec<T, N> {
    /// Copies `array`; allocates only when `M` exceeds the inline capacity.
    fn from(array: [T; M]) -> Self {
        Self::from_slice(&array)
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

    #[test]
    fn heap_pointer_shares_the_inline_slots() {
        // A length, a capacity and three 12-byte slots, no `Vec` header.
        assert_eq!(size_of::<InlineVec<[u32; 3], 3>>(), 48);
        // Where the slots are smaller than a pointer, the pointer sets
        // the size.
        assert_eq!(size_of::<InlineVec<u32, 1>>(), 16);
    }
}
