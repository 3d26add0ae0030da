//! Randomized cross-check of the intrusive use-chains against a naive
//! recomputation. The chains are per-operand-slot links threaded through
//! `OperationData` (see DESIGN.md "Op storage layout"); every mutation —
//! linking operands at creation, `set_operand`, `replace_all_uses`,
//! erasure — must keep each value's chain exactly equal to the multiset of
//! live operand slots referring to it.

use std::collections::HashMap;

use irdl_ir::{Context, OpRef, OperationState, Use, Value};

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

/// Recomputes every value's uses by walking all live ops' operand lists —
/// the definition the intrusive chains must agree with.
fn naive_uses(ctx: &Context, live: &[OpRef]) -> HashMap<Value, Vec<Use>> {
    let mut map: HashMap<Value, Vec<Use>> = HashMap::new();
    for &op in live {
        for i in 0..op.num_operands(ctx) {
            map.entry(op.operand(ctx, i))
                .or_default()
                .push(Use { op, operand_index: i as u32 });
        }
    }
    map
}

/// Asserts that every live value's intrusive chain matches the naive map:
/// same uses, no duplicates, no stale entries.
fn check_chains(ctx: &Context, live: &[OpRef]) {
    let naive = naive_uses(ctx, live);
    for &op in live {
        for i in 0..op.num_results(ctx) {
            let value = op.result(ctx, i);
            let mut chain: Vec<Use> = value.uses(ctx).collect();
            let mut expected = naive.get(&value).cloned().unwrap_or_default();
            // Chains iterate most-recently-linked first; compare as sets.
            chain.sort_by_key(|u| (u.op.index(), u.operand_index));
            expected.sort_by_key(|u| (u.op.index(), u.operand_index));
            assert_eq!(
                chain, expected,
                "use chain of {value:?} disagrees with operand-list recompute"
            );
            assert_eq!(value.is_unused(ctx), expected.is_empty());
        }
    }
}

/// Drives a random mutation sequence over a single block: op creation with
/// random operands, operand rewrites, bulk use replacement, and erasure of
/// dead ops — validating the chains after every step.
fn run_sequence(seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut ctx = Context::new();
    let f32t = ctx.f32_type();
    let name = ctx.op_name("t", "node");

    let module = ctx.create_module();
    let block = ctx.module_block(module);

    let mut live: Vec<OpRef> = Vec::new();
    // Seed values so the first created ops have operands to pick from.
    for _ in 0..2 {
        let op = ctx.create_op(OperationState::new(name).add_result_types([f32t]));
        ctx.append_op(block, op);
        live.push(op);
    }

    for _ in 0..steps {
        match rng.below(4) {
            // Create an op with 0-6 random operands and 0-2 results:
            // up to three stay inline, more spill, so the chains are
            // checked through both kinds of operand storage.
            0 => {
                let values: Vec<Value> = live
                    .iter()
                    .flat_map(|&op| (0..op.num_results(&ctx)).map(move |i| (op, i)))
                    .map(|(op, i)| op.result(&ctx, i))
                    .collect();
                let operands: Vec<Value> =
                    (0..rng.below(7)).map(|_| values[rng.below(values.len())]).collect();
                let results = rng.below(3);
                let op = ctx.create_op(
                    OperationState::new(name)
                        .add_operands(operands)
                        .add_result_types(vec![f32t; results]),
                );
                ctx.append_op(block, op);
                live.push(op);
            }
            // Redirect one operand slot to a random value.
            1 => {
                let candidates: Vec<OpRef> =
                    live.iter().copied().filter(|op| op.num_operands(&ctx) > 0).collect();
                if candidates.is_empty() {
                    continue;
                }
                let op = candidates[rng.below(candidates.len())];
                let slot = rng.below(op.num_operands(&ctx));
                let producers: Vec<Value> = live
                    .iter()
                    .filter(|&&p| p.num_results(&ctx) > 0)
                    .map(|&p| p.result(&ctx, rng.below(p.num_results(&ctx))))
                    .collect();
                let value = producers[rng.below(producers.len())];
                ctx.set_operand(op, slot, value);
            }
            // Forward every use of one value to another.
            2 => {
                let values: Vec<Value> = live
                    .iter()
                    .flat_map(|&op| (0..op.num_results(&ctx)).map(move |i| (op, i)))
                    .map(|(op, i)| op.result(&ctx, i))
                    .collect();
                let old = values[rng.below(values.len())];
                let new = values[rng.below(values.len())];
                ctx.replace_all_uses(old, new);
            }
            // Erase a dead op (all results unused), unlinking its operands.
            _ => {
                if live.len() <= 2 {
                    continue;
                }
                let Some(pos) = (0..live.len())
                    .find(|&i| live[i].results(&ctx).all(|r| r.is_unused(&ctx)))
                else {
                    continue;
                };
                let op = live.remove(pos);
                ctx.erase_op(op);
            }
        }
        check_chains(&ctx, &live);
    }
}

/// The intrusive use-chains stay consistent with a naive operand-list
/// recomputation across random create/set/replace/erase sequences.
#[test]
fn use_chains_match_naive_recompute() {
    for seed in 0..24 {
        run_sequence(0xC0FFEE ^ seed, 120);
    }
}
