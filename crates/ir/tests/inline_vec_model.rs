//! Model test for `InlineVec<T, N>`: seeded random sequences of every
//! method, checked after each step against a plain `Vec<T>` that does
//! the same thing.
//!
//! `InlineVec` keeps its heap pointer in the bytes of its inline slots
//! and takes a `Vec` apart to spill, so its correctness rests on
//! `unsafe` code. This test is the check on it: it runs each sequence
//! for `N` in 1..=4 and element types smaller than, as large as and
//! larger than a pointer, crosses the inline/spilled boundary in both
//! directions (push past `N`, `take_spill` back to inline, pooled
//! constructors, `From` conversions, clones), and feeds the pooled
//! constructors recycled buffers of zero and of large capacity. A
//! counting allocator asserts that every sequence frees exactly what it
//! allocated, so a leaked or doubly freed buffer fails the test. Run it
//! in release too (`cargo test --release -p irdl-ir --test
//! inline_vec_model`), where inlining changes what the optimizer sees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

use irdl_ir::InlineVec;

struct CountingAlloc;

thread_local! {
    /// This thread's live heap bytes.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn record(bytes: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Minimal splitmix64, matching `irdl_fuzz_lib::SplitMix64`.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What the vector under test must hold.
struct Model<T> {
    items: Vec<T>,
    /// Whether the contents must live on the heap.
    spilled: bool,
    /// A lower bound on the heap buffer's capacity while spilled: a
    /// buffer drawn from the pool or adopted from a `Vec` keeps at least
    /// its capacity until `take_spill` hands it back.
    min_capacity: usize,
}

impl<T: Copy> Model<T> {
    fn new() -> Self {
        Model { items: Vec::new(), spilled: false, min_capacity: 0 }
    }

    /// The state of a freshly built vector holding `items`: spilled
    /// exactly when they do not fit inline.
    fn fresh<const N: usize>(items: Vec<T>) -> Self {
        let spilled = items.len() > N;
        Model { items, spilled, min_capacity: 0 }
    }
}

/// Asserts that `v` holds exactly what `model` says.
fn check<T: Copy + PartialEq + Debug, const N: usize>(
    v: &InlineVec<T, N>,
    model: &Model<T>,
    step: &str,
) {
    assert_eq!(v.as_slice(), model.items.as_slice(), "contents after {step}");
    assert_eq!(v.len(), model.items.len(), "len after {step}");
    assert_eq!(v.is_empty(), model.items.is_empty(), "is_empty after {step}");
    assert_eq!(v.is_spilled(), model.spilled, "is_spilled after {step}");
    assert_eq!(&v[..], &model.items[..], "deref after {step}");
    assert!(v.iter().eq(model.items.iter()), "iteration after {step}");
}

/// A buffer for the spill pool: empty or holding stale elements, with no
/// capacity, a little, or far more than any list in the sequence needs.
fn pool_buffer<T: Copy>(rng: &mut Rng, make: fn(u64) -> T) -> Vec<T> {
    let capacity = [0, 1, 5, 1024][rng.below(4)];
    let mut buf = Vec::with_capacity(capacity);
    for _ in 0..rng.below(capacity.min(8) + 1) {
        buf.push(make(rng.next_u64()));
    }
    buf
}

/// Random items, `0..=max` of them.
fn random_items<T>(rng: &mut Rng, make: fn(u64) -> T, max: usize) -> Vec<T> {
    let len = rng.below(max + 1);
    (0..len).map(|_| make(rng.next_u64())).collect()
}

/// Builds an `InlineVec` from an array of `M` random items.
fn from_array<T: Copy, const N: usize, const M: usize>(
    rng: &mut Rng,
    make: fn(u64) -> T,
) -> (InlineVec<T, N>, Vec<T>) {
    let array: [T; M] = std::array::from_fn(|_| make(rng.next_u64()));
    (InlineVec::from(array), array.to_vec())
}

/// One seeded sequence of `steps` random operations.
fn run_sequence<T: Copy + PartialEq + Debug, const N: usize>(
    seed: u64,
    steps: usize,
    make: fn(u64) -> T,
) {
    let mut rng = Rng(seed);
    let mut v: InlineVec<T, N> = InlineVec::new();
    let mut model = Model::new();
    let mut pool: Vec<Vec<T>> = Vec::new();
    // Lists grow well past `N` but stay small enough to shrink back.
    let span = 3 * N + 4;

    for _ in 0..steps {
        let step = match rng.below(16) {
            0..=2 => {
                let x = make(rng.next_u64());
                v.push(x);
                model.items.push(x);
                model.spilled |= model.items.len() > N;
                "push"
            }
            3 => {
                let x = make(rng.next_u64());
                let drawn = !model.spilled && model.items.len() == N;
                let pool_len = pool.len();
                let drawn_capacity = pool.last().map_or(0, Vec::capacity);
                v.push_pooled(x, &mut pool);
                if drawn {
                    assert_eq!(pool.len(), pool_len.saturating_sub(1), "push_pooled draws one");
                    model.spilled = true;
                    model.min_capacity = drawn_capacity;
                } else {
                    assert_eq!(pool.len(), pool_len, "push_pooled draws only to spill");
                }
                model.items.push(x);
                "push_pooled"
            }
            4 => {
                assert_eq!(v.pop(), model.items.pop(), "pop");
                "pop"
            }
            5 => {
                if !model.items.is_empty() {
                    let index = rng.below(model.items.len());
                    assert_eq!(v.remove(index), model.items.remove(index), "remove");
                }
                "remove"
            }
            6 => {
                let len = rng.below(span);
                v.truncate(len);
                model.items.truncate(len);
                "truncate"
            }
            7 => {
                v.clear();
                model.items.clear();
                "clear"
            }
            8 => {
                let items = random_items(&mut rng, make, span);
                v.extend(items.iter().copied());
                model.items.extend_from_slice(&items);
                model.spilled |= model.items.len() > N;
                "extend"
            }
            9 => {
                // Replaces `v`; its old buffer is dropped with it.
                let len = rng.below(span);
                let fill = make(rng.next_u64());
                let pool_len = pool.len();
                let drawn_capacity = pool.last().map_or(0, Vec::capacity);
                v = InlineVec::with_len_pooled(len, fill, &mut pool);
                model = Model::fresh::<N>(vec![fill; len]);
                if model.spilled {
                    assert_eq!(pool.len(), pool_len.saturating_sub(1), "with_len_pooled draws");
                    model.min_capacity = drawn_capacity;
                } else {
                    assert_eq!(pool.len(), pool_len, "inline with_len_pooled draws nothing");
                }
                "with_len_pooled"
            }
            10 => {
                let spill = v.take_spill();
                match spill {
                    Some(buf) => {
                        assert!(model.spilled, "take_spill of inline contents returned a buffer");
                        assert_eq!(buf, model.items, "take_spill hands back the contents");
                        assert!(buf.capacity() >= model.min_capacity, "take_spill capacity");
                        pool.push(buf);
                    }
                    None => assert!(!model.spilled, "take_spill lost a spilled buffer"),
                }
                model = Model::new();
                "take_spill"
            }
            11 => {
                let copy = v.clone();
                check(&copy, &Model::fresh::<N>(model.items.clone()), "clone");
                assert!(copy == v, "clone compares equal");
                if rng.below(2) == 0 {
                    v = copy;
                    model = Model::fresh::<N>(model.items.clone());
                }
                "clone"
            }
            12 => {
                let mut items = random_items(&mut rng, make, span);
                items.reserve(rng.below(8));
                let (ptr, capacity) = (items.as_ptr(), items.capacity());
                let expected = items.clone();
                v = InlineVec::from(items);
                model = Model::fresh::<N>(expected);
                if model.spilled {
                    assert_eq!(v.as_slice().as_ptr(), ptr, "From<Vec> adopts the buffer");
                    model.min_capacity = capacity;
                }
                "From<Vec>"
            }
            13 => {
                let (built, items) = match rng.below(5) {
                    0 => from_array::<T, N, 0>(&mut rng, make),
                    1 => from_array::<T, N, 1>(&mut rng, make),
                    2 => from_array::<T, N, 3>(&mut rng, make),
                    3 => from_array::<T, N, 5>(&mut rng, make),
                    _ => from_array::<T, N, 9>(&mut rng, make),
                };
                v = built;
                model = Model::fresh::<N>(items);
                "From<[T; M]>"
            }
            14 => {
                if !model.items.is_empty() {
                    let index = rng.below(model.items.len());
                    let x = make(rng.next_u64());
                    v[index] = x;
                    model.items[index] = x;
                }
                "index assignment"
            }
            _ => {
                pool.push(pool_buffer(&mut rng, make));
                "pool refill"
            }
        };
        check(&v, &model, step);
    }
}

/// Runs `seeds` sequences for each inline capacity 1..=4, and asserts
/// the heap returns to where it started once everything is dropped.
fn run_all<T: Copy + PartialEq + Debug>(make: fn(u64) -> T) {
    let start = LIVE.with(Cell::get);
    for seed in 0..48u64 {
        let seed = 0xC0FFEE ^ (seed << 8);
        run_sequence::<T, 1>(seed, 300, make);
        run_sequence::<T, 2>(seed ^ 1, 300, make);
        run_sequence::<T, 3>(seed ^ 2, 300, make);
        run_sequence::<T, 4>(seed ^ 3, 300, make);
    }
    assert_eq!(LIVE.with(Cell::get), start, "sequences leaked or double-freed heap bytes");
}

#[test]
fn matches_vec_with_elements_smaller_than_a_pointer() {
    run_all(|x| x as u32);
}

#[test]
fn matches_vec_with_pointer_sized_elements() {
    run_all(|x| x);
}

#[test]
fn matches_vec_with_unaligned_odd_sized_elements() {
    // 6 bytes at 2-byte alignment.
    run_all(|x| [x as u16, (x >> 16) as u16, (x >> 32) as u16]);
}

#[test]
fn matches_vec_with_elements_larger_than_a_pointer() {
    // 12 bytes, the size of an SSA `Value` handle.
    run_all(|x| (x as u32, (x >> 32) as u32, (x >> 7) as u32));
}

#[test]
fn is_send() {
    fn assert_send<S: Send>() {}
    assert_send::<InlineVec<u32, 3>>();
    let v: InlineVec<u64, 1> = (0..10).collect();
    let sum = std::thread::spawn(move || v.iter().sum::<u64>()).join().expect("thread joins");
    assert_eq!(sum, 45);
}
