//! Entity arenas and uniquing tables underlying the [`Context`].
//!
//! Four storage primitives are provided:
//!
//! - [`EntityArena`], a slot map with a free list for mutable IR entities
//!   (operations, blocks, regions). Erasing an entity tombstones its slot;
//!   accessing an erased handle panics, catching use-after-erase bugs early.
//! - [`UniqueArena`], an append-only structural-uniquing table for immutable
//!   values (types, attributes, symbols). Interning the same data twice
//!   yields the same index, so handle equality is value equality. Each
//!   value is stored once; the table finds it by the hash of its borrowed
//!   [`Interned::View`] (`&str` for a symbol, `TypeRef` for a type,
//!   `AttrRef` for an attribute), so a hit builds no owned value and a
//!   miss moves or builds the value straight into the table.
//! - [`HashIndex`], the one hash-to-id index behind every such table: a
//!   content hash maps to a `u32` id, and a hash taken by other content
//!   probes forward. [`UniqueArena`] and the bytecode encoder's string
//!   table both find their entries through it.
//! - [`SlotMarks`], a set of arena slots that empties in O(1) by bumping a
//!   generation: the visited and queued sets of erasure, the rewrite
//!   driver and the incremental verifier.
//!
//! [`Context`]: crate::Context

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use crate::fasthash::{FastHasher, FastMap};

/// Defines a `Copy` newtype handle over a `u32` arena index.
macro_rules! entity_handle {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Returns the raw arena index of this handle.
            ///
            /// Indices are only meaningful relative to the
            /// [`Context`](crate::Context) that produced them.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Reconstructs a handle from a raw index previously obtained
            /// via [`Self::index`].
            pub fn from_index(index: usize) -> Self {
                Self(index as u32)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}
pub(crate) use entity_handle;

/// A slot-map arena: stable `u32` handles, O(1) allocation and erasure.
///
/// Erased slots are reused through a free list. The arena deliberately does
/// not use generation counters: IR handles are expected to be managed by the
/// owning [`Context`](crate::Context), and touching an erased handle is a
/// logic error that panics.
#[derive(Debug, Clone, Default)]
pub struct EntityArena<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> EntityArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        EntityArena { slots: Vec::new(), free: Vec::new(), live: 0 }
    }

    /// Inserts `value` and returns its slot index.
    pub fn alloc(&mut self, value: T) -> u32 {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(value);
            idx
        } else {
            self.slots.push(Some(value));
            (self.slots.len() - 1) as u32
        }
    }

    /// Returns a reference to the entity at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was erased or never allocated.
    pub fn get(&self, idx: u32) -> &T {
        self.slots[idx as usize]
            .as_ref()
            .expect("access to erased IR entity")
    }

    /// Returns a mutable reference to the entity at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was erased or never allocated.
    pub fn get_mut(&mut self, idx: u32) -> &mut T {
        self.slots[idx as usize]
            .as_mut()
            .expect("access to erased IR entity")
    }

    /// Removes and returns the entity at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was already erased.
    pub fn erase(&mut self, idx: u32) -> T {
        let value = self.slots[idx as usize]
            .take()
            .expect("double-erase of IR entity");
        self.free.push(idx);
        self.live -= 1;
        value
    }

    /// Returns `true` if `idx` refers to a live entity.
    pub fn is_live(&self, idx: u32) -> bool {
        (idx as usize) < self.slots.len() && self.slots[idx as usize].is_some()
    }

    /// Number of live entities.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if the arena holds no live entities.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over `(index, entity)` pairs of live entities.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|value| (i as u32, value)))
    }
}

/// A set of arena slots that empties in O(1): slot `i` is in the set iff
/// `marks[i]` equals the current generation, so [`clear`](Self::clear)
/// only bumps the generation. Membership never hashes and the table is
/// never wiped, so a warmed set allocates nothing; it grows only to the
/// largest slot index it has seen. Handles give their slot with
/// `index()`.
#[derive(Debug, Clone)]
pub struct SlotMarks {
    marks: Vec<u32>,
    /// Never 0, so a zeroed (never marked or removed) slot is absent.
    generation: u32,
}

impl Default for SlotMarks {
    fn default() -> Self {
        SlotMarks { marks: Vec::new(), generation: 1 }
    }
}

impl SlotMarks {
    /// Empties the set.
    pub fn clear(&mut self) {
        if self.generation == u32::MAX {
            // Old marks would match the wrapped generations: wipe them,
            // once every 2^32 clears.
            self.marks.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Adds `slot`; returns whether it was absent.
    pub fn insert(&mut self, slot: usize) -> bool {
        if slot >= self.marks.len() {
            self.marks.resize(slot + 1, 0);
        }
        let absent = self.marks[slot] != self.generation;
        self.marks[slot] = self.generation;
        absent
    }

    /// Removes `slot`.
    pub fn remove(&mut self, slot: usize) {
        if let Some(mark) = self.marks.get_mut(slot) {
            *mark = 0;
        }
    }

    /// Whether `slot` is in the set.
    pub fn contains(&self, slot: usize) -> bool {
        self.marks.get(slot) == Some(&self.generation)
    }
}

/// Ids of an append-only table, found by a content hash of their value.
///
/// The caller hashes a value's content and passes the hash in. An id
/// whose hash is already taken by other content is filed under the next
/// free hash value, so a search probes forward until the content matches
/// or it meets a free key. Entries are never removed, so a probe never
/// stops at a hole an earlier insert had stepped over.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    ids: FastMap<u64, u32>,
}

impl HashIndex {
    /// The id filed under `hash` whose content `is` accepts, if any.
    pub fn find(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut key = hash;
        while let Some(&id) = self.ids.get(&key) {
            if is(id) {
                return Some(id);
            }
            key = key.wrapping_add(1);
        }
        None
    }

    /// The id filed under `hash` whose content `is` accepts; when there is
    /// none, files `next` under the first free key and returns `None`.
    pub fn find_or_insert(
        &mut self,
        hash: u64,
        next: u32,
        mut is: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let mut key = hash;
        loop {
            match self.ids.entry(key) {
                Entry::Occupied(slot) if is(*slot.get()) => return Some(*slot.get()),
                Entry::Occupied(_) => key = key.wrapping_add(1),
                Entry::Vacant(slot) => {
                    slot.insert(next);
                    return None;
                }
            }
        }
    }

    /// Forgets every id, keeping the capacity.
    pub fn clear(&mut self) {
        self.ids.clear();
    }
}

/// The content hash the context's tables file their ids under.
pub(crate) fn content_hash(value: impl Hash) -> u64 {
    let mut hasher = FastHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A value a [`UniqueArena`] can hold: it lends a borrowed view, which the
/// table hashes and compares, and is built from one only on a miss.
pub trait Interned {
    /// The borrowed form of the value.
    type View<'a>: Copy + Hash
    where
        Self: 'a;

    /// This value's view.
    fn view(&self) -> Self::View<'_>;

    /// Whether this value's view equals `view`.
    fn is(&self, view: Self::View<'_>) -> bool;

    /// An owned copy of `view`.
    fn from_view(view: Self::View<'_>) -> Self;
}

impl Interned for Box<str> {
    type View<'a> = &'a str;

    fn view(&self) -> &str {
        self
    }

    fn is(&self, view: &str) -> bool {
        **self == *view
    }

    fn from_view(view: &str) -> Self {
        view.into()
    }
}

/// An append-only uniquing table: equal values share one index.
///
/// Used for structural interning of symbols, types and attributes; the
/// `u32` index is the identity, so comparing two interned values is an
/// integer comparison. Each value is stored once, in `values`; the
/// [`HashIndex`] finds it by the hash of its borrowed view.
#[derive(Debug, Clone)]
pub struct UniqueArena<T> {
    values: Vec<T>,
    index: HashIndex,
}

impl<T> Default for UniqueArena<T> {
    fn default() -> Self {
        UniqueArena { values: Vec::new(), index: HashIndex::default() }
    }
}

impl<T: Interned> UniqueArena<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `value`, returning the index of its unique copy. On a miss
    /// the value moves into the table; on a hit it is dropped.
    pub fn intern(&mut self, value: T) -> u32 {
        if let Some(id) = self.probe(value.view()) {
            return id;
        }
        self.values.push(value);
        self.values.len() as u32 - 1
    }

    /// Interns the value `view` describes, building the owned value only
    /// when it is new.
    pub fn intern_ref(&mut self, view: T::View<'_>) -> u32 {
        if let Some(id) = self.probe(view) {
            return id;
        }
        self.values.push(T::from_view(view));
        self.values.len() as u32 - 1
    }

    /// The index of the value `view` describes; on a miss, files the next
    /// index for the value the caller then pushes.
    fn probe(&mut self, view: T::View<'_>) -> Option<u32> {
        let values = &self.values;
        let next = values.len() as u32;
        self.index.find_or_insert(content_hash(view), next, |id| values[id as usize].is(view))
    }

    /// Returns the index of the value `view` describes, if it has been
    /// interned before.
    pub fn lookup(&self, view: T::View<'_>) -> Option<u32> {
        self.index.find(content_hash(view), |id| self.values[id as usize].is(view))
    }

    /// Returns the value stored at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn get(&self, idx: u32) -> &T {
        &self.values[idx as usize]
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_alloc_get_roundtrip() {
        let mut arena = EntityArena::new();
        let a = arena.alloc("a");
        let b = arena.alloc("b");
        assert_eq!(*arena.get(a), "a");
        assert_eq!(*arena.get(b), "b");
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn arena_erase_reuses_slots() {
        let mut arena = EntityArena::new();
        let a = arena.alloc(1);
        let _b = arena.alloc(2);
        assert_eq!(arena.erase(a), 1);
        assert!(!arena.is_live(a));
        let c = arena.alloc(3);
        assert_eq!(c, a, "freed slot should be reused");
        assert_eq!(arena.len(), 2);
    }

    #[test]
    #[should_panic(expected = "erased IR entity")]
    fn arena_get_after_erase_panics() {
        let mut arena = EntityArena::new();
        let a = arena.alloc(1);
        arena.erase(a);
        arena.get(a);
    }

    #[test]
    fn unique_arena_dedups() {
        let mut arena: UniqueArena<Box<str>> = UniqueArena::new();
        let a = arena.intern("x".into());
        let b = arena.intern("y".into());
        let a2 = arena.intern("x".into());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(&**arena.get(a), "x");
        assert_eq!(arena.lookup("y"), Some(b));
        assert_eq!(arena.lookup("z"), None);
    }

    #[test]
    fn intern_ref_finds_owned_entries() {
        let mut arena: UniqueArena<Box<str>> = UniqueArena::new();
        let a = arena.intern_ref("x");
        let b = arena.intern("y".into());
        assert_eq!(arena.intern("x".into()), a);
        assert_eq!(arena.intern_ref("y"), b);
        assert_eq!(arena.len(), 2);
    }

    /// Two distinct values filed under one hash are both found, each
    /// with its own id, and a clone of the index finds them the same way.
    #[test]
    fn colliding_hashes_probe_forward() {
        let values = ["first", "second", "third"];
        let mut index = HashIndex::default();
        for (id, value) in values.iter().enumerate() {
            let hit = index.find_or_insert(7, id as u32, |i| values[i as usize] == *value);
            assert_eq!(hit, None, "{value} is new");
        }
        let clone = index.clone();
        for index in [&index, &clone] {
            for (id, value) in values.iter().enumerate() {
                assert_eq!(index.find(7, |i| values[i as usize] == *value), Some(id as u32));
            }
            assert_eq!(index.find(7, |i| values[i as usize] == "fourth"), None);
        }
        let mut clone = clone;
        assert_eq!(clone.find_or_insert(7, 9, |i| values[i as usize] == "second"), Some(1));
    }

    #[test]
    fn arena_iter_skips_tombstones() {
        let mut arena = EntityArena::new();
        let _a = arena.alloc(1);
        let b = arena.alloc(2);
        let _c = arena.alloc(3);
        arena.erase(b);
        let values: Vec<i32> = arena.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![1, 3]);
    }

    #[test]
    fn slot_marks_clear_in_o1_and_survive_generation_wrap() {
        let mut marks = SlotMarks::default();
        assert!(!marks.contains(3));
        assert!(marks.insert(3));
        assert!(!marks.insert(3), "second insert finds it present");
        assert!(marks.contains(3) && !marks.contains(2) && !marks.contains(99));
        marks.remove(3);
        assert!(!marks.contains(3));
        marks.insert(5);
        marks.clear();
        assert!(!marks.contains(5), "clear empties without a wipe");
        // A slot marked just before the generation wraps must not read as
        // present under any later generation.
        marks.generation = u32::MAX;
        marks.insert(7);
        marks.clear();
        assert!(!marks.contains(7));
        for _ in 0..3 {
            marks.clear();
            assert!(!marks.contains(7) && !marks.contains(5));
        }
    }
}
