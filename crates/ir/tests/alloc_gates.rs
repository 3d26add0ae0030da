//! Allocation-count regression gates for the compact op storage layer
//! (see DESIGN.md "Op storage layout") and the bytecode encoder (see
//! "Bytecode format"). A counting global allocator pins the properties
//! they exist for:
//!
//! - steady-state op create/erase cycles recycle every buffer: **zero**
//!   heap allocations once warm;
//! - the erase path no longer clones operand vectors: erasing a warmed
//!   subtree is allocation-free;
//! - a warmed text parse and erase of a 65-op chain allocates nothing
//!   (the gate was ≤ 3 allocs/op before payloads interned from the
//!   parser's stacks), and a warmed bytecode decode allocates nothing;
//! - bytecode encode allocates only its output: a warmed 512-op module
//!   encodes with exactly one allocation;
//! - a warmed bytecode round trip of a corpus-shaped module (nested
//!   regions, a multi-block CFG, spilled op lists, string, array and
//!   parametric attributes) makes 0 allocations to decode, 1 to encode
//!   and 0 to erase;
//! - text parse streams its tokens: the heap a warmed parse holds only
//!   while it runs stays within 2 bytes per source byte (1.45 measured;
//!   parsing from a whole-source token buffer held 35.8);
//! - ops of up to three operands keep their operand and use-link lists
//!   inline: a warmed parse and erase of a `t.fma` chain allocates
//!   nothing per op;
//! - the spill pool parks only small buffers: erasing four
//!   million-operand ops leaves the live heap where it started;
//! - decimal value names (`%0`, `%1`, ...) are never interned: they meet
//!   the same parse budgets as `%v0`-style names, leave nothing in the
//!   context's symbol table, and a name as large as `%4294967296` or
//!   `%99999999999999999999` costs a tiny file no more heap than a small
//!   name does;
//! - a warmed text round trip of a module with shaped, function and
//!   parametric types, string and array attributes and a multi-block CFG
//!   makes no allocation to parse, verify, print or erase: payloads
//!   intern from the parser's stacks, printers reuse the context's naming
//!   tables and dominance reuses its arrays;
//! - every interned value is stored once: a new symbol costs one
//!   allocation plus amortised table growth, a parametric type that
//!   already exists costs nothing, and a context clone copies each
//!   symbol once.
//!
//! The counters are per thread, so nothing but the gate's own thread (not
//! even the test harness) can perturb them, and the gates run in one
//! `#[test]` so each sees the context the previous ones warmed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use irdl_ir::bytecode::{decode_module, encode_module};
use irdl_ir::parse::parse_module;
use irdl_ir::print::Printer;
use irdl_ir::verify::ModuleVerifier;
use irdl_ir::{Context, OperationState};

struct CountingAlloc;

thread_local! {
    /// This thread's allocation count, its live bytes, and the most live
    /// bytes at once since the last reset.
    static COUNTS: Cell<(u64, i64, i64)> = const { Cell::new((0, 0, 0)) };
}

/// Records `allocs` allocations and a change of `bytes` in live bytes
/// (`try_with`: nothing is recorded during thread teardown).
fn record(allocs: u64, bytes: i64) {
    let _ = COUNTS.try_with(|counts| {
        let (n, live, peak) = counts.get();
        counts.set((n + allocs, live + bytes, peak.max(live + bytes)));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both blocks for a moment.
        record(1, new_size as i64);
        record(0, -(layout.size() as i64));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    COUNTS.with(|counts| counts.get().0)
}

/// Counts the allocations `f` performs.
fn count(mut f: impl FnMut()) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

/// Steady-state create/append/erase cycles must not touch the heap: the
/// op's inline payloads avoid it on construction and the arena free list
/// plus spill pool recycle everything on erase.
fn check_steady_create_erase(ctx: &mut Context) {
    let f32t = ctx.f32_type();
    let name = ctx.op_name("t", "node");
    let module = ctx.create_module();
    let block = ctx.module_block(module);
    let src = ctx.create_op(OperationState::new(name).add_result_types([f32t]));
    ctx.append_op(block, src);
    let feed = src.result(ctx, 0);

    let cycle = |ctx: &mut Context| {
        let op = ctx.create_op(
            OperationState::new(name).add_operands([feed, feed]).add_result_types([f32t]),
        );
        ctx.append_op(block, op);
        ctx.erase_op(op);
    };
    for _ in 0..256 {
        cycle(ctx);
    }
    let used = count(|| {
        for _ in 0..10_000 {
            cycle(ctx);
        }
    });
    assert_eq!(used, 0, "steady-state create/erase must be allocation-free");
    ctx.erase_op(module);
}

/// Erasing a warmed multi-op subtree — ops with cross-uses, so the erase
/// path must unlink operands of surviving ops — is allocation-free: the
/// old operand-vector clone is gone and the subtree scratch (including the
/// generation-stamped mark vector) is recycled.
fn check_erase_subtree_no_alloc(ctx: &mut Context) {
    let f32t = ctx.f32_type();
    let name = ctx.op_name("t", "node");

    let build = |ctx: &mut Context| {
        let module = ctx.create_module();
        let block = ctx.module_block(module);
        let src = ctx.create_op(OperationState::new(name).add_result_types([f32t]));
        ctx.append_op(block, src);
        let mut value = src.result(ctx, 0);
        for _ in 0..8 {
            let op = ctx.create_op(
                OperationState::new(name)
                    .add_operands([value, value])
                    .add_result_types([f32t]),
            );
            ctx.append_op(block, op);
            value = op.result(ctx, 0);
        }
        module
    };
    for _ in 0..16 {
        let module = build(ctx);
        ctx.erase_op(module);
    }
    for _ in 0..8 {
        let module = build(ctx);
        let used = count(|| ctx.erase_op(module));
        assert_eq!(used, 0, "warmed subtree erase must be allocation-free");
    }
}

/// A straight-line module in the quoted generic form, self-contained (no
/// registry needed). Its values are named `%{prefix}0`, `%{prefix}1`, ...
/// and typed `ty`.
fn typed_chain_source(n: usize, prefix: &str, ty: &str) -> String {
    let mut out = format!("%{prefix}0 = \"t.src\"() : () -> {ty}\n");
    for i in 0..n {
        out.push_str(&format!("%{prefix}{} = \"t.mid\"(%{prefix}{i}) : ({ty}) -> {ty}\n", i + 1));
    }
    out
}

/// The chain with `f32` values.
fn chain_source(n: usize, prefix: &str) -> String {
    typed_chain_source(n, prefix, "f32")
}

/// Both spellings of the chain: `%v0`-style names resolve through the
/// per-scope symbol maps, the printer's `%0`-style ones through the
/// dense table.
const NAME_PREFIXES: [&str; 2] = ["v", ""];

/// A warmed parse and erase of a chain of `tensor<? x 4 x f32>` values
/// allocates nothing: the scope tables, the op, block and region lists
/// and the interning of each tensor type's dimensions all reuse what
/// earlier parses left. (The gate was 3.0 allocations per op; when the
/// parser built an owned dimension list for every type it read, this
/// chain took 1.98: 129 per pass.)
fn check_parse_budget(ctx: &mut Context, prefix: &str) {
    const OPS: usize = 65; // 64 chain ops + the source op
    let text = typed_chain_source(64, prefix, "tensor<? x 4 x f32>");
    for _ in 0..3 {
        let module = parse_module(ctx, &text).expect("chain parses");
        ctx.erase_op(module);
    }
    const PASSES: u64 = 16;
    let used = count(|| {
        for _ in 0..PASSES {
            let module = parse_module(ctx, &text).expect("chain parses");
            black_box(module);
            ctx.erase_op(module);
        }
    });
    let per_op = used as f64 / (PASSES * OPS as u64) as f64;
    assert_eq!(used, 0, "parse of `%{prefix}N` names at {per_op:.3} allocs/op; the gate is 0");
}

/// A warmed parse's transient heap (its peak live bytes minus what is
/// still live once it returns) stays within 2 bytes per source byte: the
/// lexer streams tokens into a two-slot lookahead instead of a buffer
/// holding the whole source's tokens at 48 bytes each.
fn check_parse_transient_heap(ctx: &mut Context, prefix: &str) {
    const BUDGET_PER_SOURCE_BYTE: f64 = 2.0;
    let text = chain_source(16_384, prefix);
    for _ in 0..2 {
        let module = parse_module(ctx, &text).expect("chain parses");
        ctx.erase_op(module);
    }
    COUNTS.with(|counts| {
        let (n, live, _) = counts.get();
        counts.set((n, live, live));
    });
    let module = parse_module(ctx, &text).expect("chain parses");
    let (_, live, peak) = COUNTS.with(Cell::get);
    let transient = peak - live;
    ctx.erase_op(module);
    let per_byte = transient as f64 / text.len() as f64;
    assert!(
        per_byte <= BUDGET_PER_SOURCE_BYTE,
        "parse of `%{prefix}N` names held {transient} transient bytes for {} source bytes \
         ({per_byte:.2} per byte), over the {BUDGET_PER_SOURCE_BYTE} gate",
        text.len()
    );
}

/// Decimal value names are resolved by number and never interned, so
/// parsing the numbered chain leaves none of them in the symbol table.
fn check_decimal_names_not_interned(ctx: &mut Context) {
    let module = parse_module(ctx, &chain_source(16_384, "")).expect("chain parses");
    ctx.erase_op(module);
    assert_eq!(ctx.symbol_lookup("16383"), None, "`%16383` was interned");
    assert_eq!(ctx.symbol_lookup("0"), None, "`%0` was interned");
}

/// The peak heap a parse of `text` adds above what was live before it.
fn parse_peak_heap(ctx: &mut Context, text: &str) -> i64 {
    let (n, start, _) = COUNTS.with(Cell::get);
    COUNTS.with(|counts| counts.set((n, start, start)));
    let module = parse_module(ctx, text).expect("tiny module parses");
    let (_, _, peak) = COUNTS.with(Cell::get);
    ctx.erase_op(module);
    peak - start
}

/// A decimal name far past the source length must not size anything by
/// its number: a tiny file defining and using `%1000000`, `%4294967296`
/// (past `u32::MAX`) or `%99999999999999999999` (past `u64::MAX`) parses
/// within 64 bytes per source byte of the heap the same file takes with
/// the name `%1` (measured: 14 to 40 bytes more in all, the interned
/// name; a table sized by the number would take megabytes).
fn check_huge_decimal_names(ctx: &mut Context) {
    const SLACK_PER_SOURCE_BYTE: i64 = 64;
    let tiny = |name: &str| {
        format!("%{name} = \"t.a\"() : () -> i32\n\"t.use\"(%{name}) : (i32) -> ()\n")
    };
    for _ in 0..3 {
        parse_peak_heap(ctx, &tiny("1"));
    }
    let small = parse_peak_heap(ctx, &tiny("1"));
    for name in ["1000000", "4294967296", "99999999999999999999"] {
        let text = tiny(name);
        let peak = parse_peak_heap(ctx, &text);
        let budget = small + SLACK_PER_SOURCE_BYTE * text.len() as i64;
        assert!(
            peak <= budget,
            "parsing `%{name}` in {} bytes peaked at {peak} heap bytes, over {budget} \
             (`%1`: {small})",
            text.len()
        );
    }
}

/// A chain of `n` three-operand ops in the quoted generic form: each
/// `t.fma` reads the previous value twice and the source once.
fn fma_chain_source(n: usize) -> String {
    let mut out = String::from("%v0 = \"t.src\"() : () -> f32\n");
    for i in 0..n {
        out.push_str(&format!(
            "%v{} = \"t.fma\"(%v{i}, %v{i}, %v0) : (f32, f32, f32) -> f32\n",
            i + 1
        ));
    }
    out
}

/// Allocations made by `passes` warmed parse-and-erase cycles of `text`.
fn parse_erase_allocs(ctx: &mut Context, text: &str, passes: u64) -> u64 {
    for _ in 0..3 {
        let module = parse_module(ctx, text).expect("chain parses");
        ctx.erase_op(module);
    }
    count(|| {
        for _ in 0..passes {
            let module = parse_module(ctx, text).expect("chain parses");
            black_box(module);
            ctx.erase_op(module);
        }
    })
}

/// Three operands and their three use-links fit in the op record, so a
/// warmed parse and erase of a chain of `t.fma` ops allocates nothing
/// per op: doubling the chain from 256 to 512 ops adds only what the
/// module's own lists take to grow once more (2 allocations measured;
/// the gate allows 4). With two inline slots each op spilled both lists:
/// 514 more allocations per pass, two per extra op.
fn check_three_operand_ops_stay_inline(ctx: &mut Context) {
    const OPS: usize = 256;
    const PASSES: u64 = 8;
    const LIST_GROWTH: u64 = 4;
    let short = parse_erase_allocs(ctx, &fma_chain_source(OPS), PASSES);
    let long = parse_erase_allocs(ctx, &fma_chain_source(2 * OPS), PASSES);
    let extra = long.saturating_sub(short) / PASSES;
    assert!(
        extra <= LIST_GROWTH,
        "a warmed parse and erase of {} `t.fma` ops made {extra} more allocations than of \
         {OPS} ({:.3} per extra op); the gate is 0 per op, {LIST_GROWTH} for the module's lists",
        2 * OPS,
        extra as f64 / OPS as f64
    );
}

/// The spill pool parks only small buffers: creating and erasing four
/// million-operand ops one after another leaves the context's live heap
/// where it started, within a fixed slack. When the pool capped only the
/// number of buffers it kept, those erasures left 99.5 MB live for the
/// context's lifetime.
fn check_spill_pool_frees_large_buffers(ctx: &mut Context) {
    const OPERANDS: usize = 1_000_000;
    const SLACK_BYTES: i64 = 1 << 20;
    let f32t = ctx.f32_type();
    let name = ctx.op_name("t", "wide");
    let src = ctx.create_op(OperationState::new(name).add_result_types([f32t]));
    let feed = src.result(ctx, 0);
    let start = COUNTS.with(Cell::get).1;
    for _ in 0..4 {
        let op = ctx.create_op(
            OperationState::new(name).add_operands(std::iter::repeat_n(feed, OPERANDS)),
        );
        ctx.erase_op(op);
    }
    let pinned = COUNTS.with(Cell::get).1 - start;
    ctx.erase_op(src);
    assert!(
        pinned <= SLACK_BYTES,
        "erasing four {OPERANDS}-operand ops left {pinned} bytes live, over the \
         {SLACK_BYTES}-byte slack"
    );
}

/// A warmed bytecode decode and erase of a 65-op chain allocates
/// nothing: the decoder's tables, the op, block and region lists and the
/// interning probes all reuse buffers. (The gate was 2.0 allocations per
/// op before the decoder parked its tables in the context.)
fn check_decode_budget(ctx: &mut Context) {
    const OPS: usize = 65;
    let text = chain_source(64, "v");
    let module = parse_module(ctx, &text).expect("chain parses");
    let bytes = encode_module(ctx, module).expect("chain encodes");
    ctx.erase_op(module);
    for _ in 0..3 {
        let module = decode_module(ctx, &bytes).expect("chain decodes");
        ctx.erase_op(module);
    }
    const PASSES: u64 = 16;
    let used = count(|| {
        for _ in 0..PASSES {
            let module = decode_module(ctx, &bytes).expect("chain decodes");
            black_box(module);
            ctx.erase_op(module);
        }
    });
    let per_op = used as f64 / (PASSES * OPS as u64) as f64;
    assert_eq!(used, 0, "decode at {per_op:.3} allocs/op; the gate is 0");
}

/// Encoding borrows the context's op lists and region bodies, keeps its
/// tables in the context, and writes one exactly-sized output: a warmed
/// 512-op chain costs exactly that one allocation. (The gate was 64, with
/// 30 measured, before the tables were parked in the context.)
fn check_encode_budget(ctx: &mut Context) {
    const BUDGET: u64 = 1;
    let text = chain_source(511, "v"); // the source op + 511 chain ops
    let module = parse_module(ctx, &text).expect("chain parses");
    for _ in 0..3 {
        black_box(encode_module(ctx, module).expect("chain encodes"));
    }
    let used = count(|| {
        black_box(encode_module(ctx, module).expect("chain encodes"));
    });
    assert!(used <= BUDGET, "encoding 512 ops made {used} allocations, over the {BUDGET} gate");
    ctx.erase_op(module);
}

/// A module shaped like the corpus: two functions, each a multi-block
/// CFG with block arguments, a 2-successor branch, a nested region, a
/// 2-result op, a 4-operand op with three attributes, and string, array
/// and parametric attributes and types.
fn corpus_shaped_source() -> String {
    let mut out = String::from("\"builtin.module\"() ({\n");
    for f in 0..2 {
        out.push_str(&format!(
            r#""t.func"() ({{
^bb0(%a: i32, %box: !t.box<i32>):
  %p:2 = "t.pair"(%a) {{name = "pair{f}", tags = [1 : i32, "x", #t.tag<2 : i32>]}} : (i32) -> (i32, i32)
  %m = "t.mix"(%p#0, %p#1, %a, %p#0) {{a = 1 : i32, b = "s", c = #t.tag<3 : i32>}} : (i32, i32, i32, i32) -> i32
  "t.cond_br"(%m)[^bb1, ^bb2] : (i32) -> ()
^bb1:
  "t.loop"() ({{
    %i = "t.inner"(%m) : (i32) -> i32
    "t.yield"(%i) : (i32) -> ()
  }}) : () -> ()
  "t.br"()[^bb2] : () -> ()
^bb2:
  "t.ret"(%box) : (!t.box<i32>) -> ()
}}) {{sym_name = "f{f}"}} : () -> ()
"#
        ));
    }
    out.push_str("}) : () -> ()\n");
    out
}

/// Once warmed, a bytecode round trip allocates only what it returns: a
/// decode makes no allocation (its tables, the op, block and region
/// lists, and the interning probes all reuse buffers), an encode makes
/// exactly one (the output `Vec`), and an erase none. Before the codec
/// kept its tables in the context and erased blocks and regions handed
/// their lists to the pool, this module took 47 allocations to decode
/// and 34 to encode.
fn check_codec_round_trip_is_allocation_free(ctx: &mut Context) {
    let module = parse_module(ctx, &corpus_shaped_source()).expect("module parses");
    let bytes = encode_module(ctx, module).expect("module encodes");
    ctx.erase_op(module);
    for _ in 0..4 {
        let module = decode_module(ctx, &bytes).expect("module decodes");
        black_box(encode_module(ctx, module).expect("module encodes"));
        ctx.erase_op(module);
    }
    let mut decoded = None;
    let decode = count(|| decoded = Some(decode_module(ctx, &bytes).expect("module decodes")));
    let module = decoded.expect("decoded above");
    let mut out = Vec::new();
    let encode = count(|| out = encode_module(ctx, module).expect("module encodes"));
    assert_eq!(out, bytes, "the round trip changed the bytes");
    let erase = count(|| ctx.erase_op(module));
    assert_eq!(
        (decode, encode, erase),
        (0, 1, 0),
        "warmed (decode, encode, erase) allocations; the gate is (0, 1, 0)"
    );
}

/// A module with every kind of payload the parser builds on its stacks
/// (`vector`, `tensor` and `memref` dimensions, function-type inputs and
/// results, parametric type and attribute parameters, string and array
/// attributes) and a multi-block CFG whose entry branches two ways, so
/// verifying it computes dominance.
const TEXT_ROUND_TRIP_SOURCE: &str = r#""builtin.module"() ({
  "t.func"() ({
  ^bb0(%a: i32, %v: vector<4 x f32>):
    %t = "t.shape"(%v) {name = "shape", tags = [1 : i32, "x", #t.tag<2 : i32>], fn = (i32, tensor<? x 4 x f32>) -> memref<2 x ? x f32>} : (vector<4 x f32>) -> tensor<? x 4 x f32>
    %b = "t.box"(%a) : (i32) -> !t.box<i32, "p">
    "t.cond_br"(%a)[^bb1, ^bb2] : (i32) -> ()
  ^bb1:
    "t.use"(%t, %b) : (tensor<? x 4 x f32>, !t.box<i32, "p">) -> ()
    "t.br"()[^bb2] : () -> ()
  ^bb2:
    "t.br"()[^bb1] : () -> ()
  }) {sym_name = "f"} : () -> ()
}) : () -> ()
"#;

/// Once warmed, a text round trip allocates nothing: parsing interns
/// every payload from the parser's stacks, verifying reuses the
/// verifier's dominance arrays, a fresh `Printer` names values in the
/// context's parked tables and prints into a reused `String`, and erasing
/// hands every list to the spill pool. Before payloads interned from
/// borrowed slices, printers kept their tables in the context and
/// dominance reused its arrays, this module took 17 allocations to
/// parse, 16 to verify, 3 to print and none to erase.
fn check_text_round_trip_is_allocation_free(ctx: &mut Context) {
    let mut verifier = ModuleVerifier::new();
    let mut out = String::new();
    let mut first = None;
    for _ in 0..4 {
        let module = parse_module(ctx, TEXT_ROUND_TRIP_SOURCE).expect("module parses");
        verifier.verify(ctx, module).expect("module verifies");
        out.clear();
        Printer::new(&mut out).print_op(ctx, module);
        first.get_or_insert_with(|| out.clone());
        ctx.erase_op(module);
    }
    let mut parsed = None;
    let parse = count(|| parsed = Some(parse_module(ctx, TEXT_ROUND_TRIP_SOURCE)));
    let module = parsed.expect("parsed above").expect("module parses");
    let mut verdict = Ok(());
    let verify = count(|| verdict = verifier.verify(ctx, module));
    verdict.expect("module verifies");
    out.clear();
    let print = count(|| Printer::new(&mut out).print_op(ctx, module));
    assert_eq!(Some(&out), first.as_ref(), "the warmed print changed the text");
    let erase = count(|| ctx.erase_op(module));
    assert_eq!(
        (parse, verify, print, erase),
        (0, 0, 0, 0),
        "warmed (parse, verify, print, erase) allocations; the gate is (0, 0, 0, 0)"
    );
}

/// Every interned value is stored once, in its table's value list: 1 024
/// new symbols cost one allocation each (the `Box<str>`) plus the tables'
/// amortised growth, a parametric type that already exists costs nothing
/// beyond the caller's parameter list, and cloning a context copies each
/// symbol once (1 042, 0 and 1 041 measured). When the tables kept every
/// value twice, in the value list and as the map key, the symbols took
/// 2 066 allocations, the hit 1 (a clone of the list) and the clone 2 071.
fn check_interning_copies_once() {
    let mut ctx = Context::new();
    let names: Vec<String> = (0..1024).map(|i| format!("interned_symbol_{i}")).collect();
    let new = count(|| {
        for name in &names {
            black_box(ctx.symbol(name));
        }
    });
    let hits = count(|| {
        for name in &names {
            black_box(ctx.symbol(name));
        }
    });
    let f32 = ctx.f32_type();
    let param = ctx.type_attr(f32);
    let (dialect, name) = (ctx.symbol("t"), ctx.symbol("complex"));
    let ty = ctx.parametric_type_syms(dialect, name, vec![param]).expect("unregistered type");
    let mut params = Some(vec![param]);
    let mut again = None;
    let hit = count(|| {
        let params = params.take().expect("one list");
        again = Some(ctx.parametric_type_syms(dialect, name, params).expect("unregistered type"));
    });
    assert_eq!(again, Some(ty));
    let clone = count(|| drop(black_box(ctx.clone())));
    assert!(new <= 1024 + 32, "1 024 new symbols took {new} allocations; the gate is 1 056");
    assert_eq!(hits, 0, "interning 1 024 known symbols allocated");
    assert_eq!(hit, 0, "a parametric type hit allocated beyond the caller's list");
    assert!(clone <= 1024 + 64, "cloning the context took {clone} allocations; the gate is 1 088");
}

#[test]
fn compact_storage_alloc_gates() {
    let mut ctx = Context::new();
    check_steady_create_erase(&mut ctx);
    check_erase_subtree_no_alloc(&mut ctx);
    for prefix in NAME_PREFIXES {
        check_parse_budget(&mut ctx, prefix);
        check_parse_transient_heap(&mut ctx, prefix);
    }
    check_decimal_names_not_interned(&mut ctx);
    check_huge_decimal_names(&mut ctx);
    check_three_operand_ops_stay_inline(&mut ctx);
    check_decode_budget(&mut ctx);
    check_encode_budget(&mut ctx);
    check_codec_round_trip_is_allocation_free(&mut ctx);
    check_text_round_trip_is_allocation_free(&mut ctx);
    check_spill_pool_frees_large_buffers(&mut ctx);
    check_interning_copies_once();
}
