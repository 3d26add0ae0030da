//! A declarative, textual pattern format.
//!
//! Dialects in this reproduction are loaded from IRDL text at runtime; this
//! module lets *rewrites* be loaded the same way (the "dynamic pattern
//! rewriting support" the paper pairs with IRDL in §3). A pattern matches a
//! DAG of operations rooted at the last operation of its `Match` block and
//! replaces it with the ops of its `Rewrite` block:
//!
//! ```text
//! Pattern conorm {
//!   Match {
//!     %n1 = cmath.norm(%p)
//!     %n2 = cmath.norm(%q)
//!     %r = arith.mulf(%n1, %n2)
//!   }
//!   Rewrite {
//!     %m = cmath.mul(%p, %q) : typeof(%p)
//!     %r2 = cmath.norm(%m) : typeof(%r)
//!     Replace %r with %r2
//!   }
//! }
//! ```
//!
//! Result types of new operations are written `typeof(%v)`, referencing any
//! matched or newly created value. Interior matched operations are erased
//! when the rewrite leaves them without uses.
//!
//! Both match and rewrite ops take an optional attribute clause after the
//! operand list — `cmath.norm(%p) {fast = true}` — requiring (or setting)
//! exact attribute values: integer, string, or boolean literals.
//!
//! Because a declarative pattern's match side is fully structural, it also
//! lowers to a [`MatchProgram`] (see [`crate::matcher`]): the driver can
//! test the whole catalog against an op with one automaton evaluation
//! instead of one `try_match` walk per pattern.
//!
//! Variables are resolved to slot numbers when the pattern is parsed, and
//! each operand that another match op defines records that op's index.
//! Matching and rewriting then bind values in a small inline array indexed
//! by slot, so applying a pattern allocates nothing beyond the ops it
//! creates.

use irdl_ir::diag::Result;
use irdl_ir::lexer::{Token, TokenStream};
use irdl_ir::{Attribute, Context, InlineVec, OpName, OperationState, OpRef, Symbol, Value};

use crate::matcher::{MatchProgram, OpPath, Pred, ValuePos};
use crate::pattern::{PatternSet, RewritePattern, Rewriter};

/// A pattern variable: its slot in the pattern's binding array, assigned
/// in order of first appearance.
type Var = usize;

/// Values bound to a pattern's variables, by slot.
type Bindings = InlineVec<Option<Value>, 16>;

/// The op matched by each `Match` template, by template index.
type MatchedOps = InlineVec<Option<OpRef>, 8>;

/// One operand of a `Match` template.
#[derive(Debug, Clone, Copy)]
struct MatchOperand {
    var: Var,
    /// The other match op whose result `var` names, if any: the operand
    /// must then be that op's result, matched recursively.
    producer: Option<usize>,
}

/// One operation template in a `Match` block.
#[derive(Debug, Clone)]
struct MatchOp {
    /// Variable bound to the single result (`None` for zero-result ops).
    def: Option<Var>,
    name: OpName,
    operands: Vec<MatchOperand>,
    /// Required attribute values from the `{key = literal, ...}` clause.
    attrs: Vec<(Symbol, Attribute)>,
}

/// One operation template in a `Rewrite` block.
#[derive(Debug, Clone)]
struct RewriteOp {
    def: Option<Var>,
    name: OpName,
    operands: Vec<Var>,
    /// Attributes to set on the materialized op.
    attrs: Vec<(Symbol, Attribute)>,
    /// `typeof(%v)` sources for each result (one per result).
    result_types_of: Vec<Var>,
}

/// A parsed declarative pattern; implements [`RewritePattern`].
#[derive(Debug, Clone)]
pub struct DeclarativePattern {
    name: String,
    /// Relative priority from the optional `benefit N` clause (default 1).
    benefit: usize,
    /// Variable names by slot.
    vars: Vec<String>,
    match_ops: Vec<MatchOp>,
    rewrite_ops: Vec<RewriteOp>,
    /// `Replace <root def var> with <replacement var>`.
    replace_with: Var,
}

/// Parses a sequence of `Pattern` definitions into a [`PatternSet`].
///
/// # Errors
///
/// Returns a diagnostic with an offset into `source` on malformed input.
pub fn parse_patterns(ctx: &mut Context, source: &str) -> Result<PatternSet> {
    let mut parser = DslParser { ctx, tokens: TokenStream::new(source) };
    let result = parser.parse_patterns();
    parser.tokens.finish(result)
}

/// Parsed `[%def =] dialect.op(%operand, ...) [{key = value, ...}]`.
type OpHead = (Option<Var>, OpName, Vec<Var>, Vec<(Symbol, Attribute)>);

/// The slot of the variable `name` in `vars`, appending it on first use.
fn slot(vars: &mut Vec<String>, name: String) -> Var {
    match vars.iter().position(|v| *v == name) {
        Some(var) => var,
        None => {
            vars.push(name);
            vars.len() - 1
        }
    }
}

struct DslParser<'s, 'c> {
    ctx: &'c mut Context,
    tokens: TokenStream<'s>,
}

impl<'s, 'c> DslParser<'s, 'c> {
    fn parse_patterns(&mut self) -> Result<PatternSet> {
        let mut set = PatternSet::new();
        while self.tokens.peek() != &Token::Eof {
            let pattern = self.parse_pattern()?;
            set.add(std::sync::Arc::new(pattern));
        }
        Ok(set)
    }

    fn expect_value(&mut self) -> Result<String> {
        match self.tokens.bump() {
            Token::ValueId(name) => Ok(name.to_string()),
            other => Err(self.tokens.expected("`%name`", &other)),
        }
    }

    fn parse_pattern(&mut self) -> Result<DeclarativePattern> {
        self.tokens.expect_keyword("Pattern")?;
        let name = match self.tokens.bump() {
            Token::Ident(s) => s.to_string(),
            other => return Err(self.tokens.expected("pattern name", &other)),
        };
        // Optional `benefit N` clause: higher-benefit patterns are tried
        // first by the driver.
        let mut benefit = 1usize;
        if self.tokens.consume_keyword("benefit") {
            benefit = match self.tokens.bump() {
                Token::Integer { value, .. } if value >= 1 && value <= i128::from(u32::MAX) => {
                    value as usize
                }
                other => return Err(self.tokens.expected("a positive benefit", &other)),
            };
        }
        self.tokens.expect(&Token::LBrace)?;
        self.tokens.expect_keyword("Match")?;
        self.tokens.expect(&Token::LBrace)?;
        let mut vars = Vec::new();
        let mut match_heads = Vec::new();
        while self.tokens.peek() != &Token::RBrace {
            match_heads.push(self.parse_op_head(&mut vars)?);
        }
        self.tokens.expect(&Token::RBrace)?;
        if match_heads.is_empty() {
            return Err(self.tokens.error("Match block must contain at least one operation"));
        }
        self.tokens.expect_keyword("Rewrite")?;
        self.tokens.expect(&Token::LBrace)?;
        let mut rewrite_ops = Vec::new();
        let mut replace_with = None;
        while self.tokens.peek() != &Token::RBrace {
            if self.tokens.consume_keyword("Replace") {
                let target = self.expect_value()?;
                let root_def = match_heads
                    .last()
                    .and_then(|(def, ..)| *def)
                    .ok_or_else(|| self.tokens.error("root operation binds no result"))?;
                if target != vars[root_def] {
                    return Err(self.tokens.error(format!(
                        "Replace target `%{target}` must be the root's result `%{}`",
                        vars[root_def]
                    )));
                }
                self.tokens.expect_keyword("with")?;
                replace_with = Some(slot(&mut vars, self.expect_value()?));
            } else {
                rewrite_ops.push(self.parse_rewrite_op(&mut vars)?);
            }
        }
        self.tokens.expect(&Token::RBrace)?;
        self.tokens.expect(&Token::RBrace)?;
        let replace_with = replace_with
            .ok_or_else(|| self.tokens.error("Rewrite block must end with a `Replace ... with ...`"))?;
        // Every variable the rewrite reads must be bound by the match (an
        // operand or result var) or defined by an earlier rewrite op, so a
        // failed lookup can never occur mid-rewrite (which would leave
        // partially materialized IR behind).
        let mut bound = vec![false; vars.len()];
        for (def, _, operands, _) in &match_heads {
            for &var in operands.iter().chain(def) {
                bound[var] = true;
            }
        }
        for op in &rewrite_ops {
            for &var in op.operands.iter().chain(&op.result_types_of) {
                if !bound[var] {
                    return Err(self.tokens.error(format!(
                        "rewrite references `%{}`, which neither the match nor an \
                         earlier rewrite op binds",
                        vars[var]
                    )));
                }
            }
            if let Some(def) = op.def {
                bound[def] = true;
            }
        }
        if !bound[replace_with] {
            return Err(self.tokens.error(format!(
                "Replace uses `%{}`, which nothing binds",
                vars[replace_with]
            )));
        }
        // An operand names a producer when some match op defines its
        // variable (the first such op, and never the op itself).
        let defs: Vec<Option<Var>> = match_heads.iter().map(|(def, ..)| *def).collect();
        let match_ops: Vec<MatchOp> = match_heads
            .into_iter()
            .enumerate()
            .map(|(index, (def, name, operands, attrs))| MatchOp {
                def,
                name,
                operands: operands
                    .into_iter()
                    .map(|var| MatchOperand {
                        var,
                        producer: defs
                            .iter()
                            .position(|&d| d == Some(var))
                            .filter(|&p| p != index),
                    })
                    .collect(),
                attrs,
            })
            .collect();
        // Matching walks from the root through producers only, so an op
        // outside that DAG could never be bound.
        let mut reached = vec![false; match_ops.len()];
        let mut stack = vec![match_ops.len() - 1];
        while let Some(index) = stack.pop() {
            if !std::mem::replace(&mut reached[index], true) {
                stack.extend(match_ops[index].operands.iter().filter_map(|o| o.producer));
            }
        }
        if let Some(stray) = reached.iter().position(|&r| !r) {
            return Err(self.tokens.error(format!(
                "match operation `{}` does not feed the root operation",
                match_ops[stray].name.display(self.ctx)
            )));
        }
        Ok(DeclarativePattern { name, benefit, vars, match_ops, rewrite_ops, replace_with })
    }

    /// Parses the optional `{key = literal, ...}` attribute clause.
    fn parse_attr_clause(&mut self) -> Result<Vec<(Symbol, Attribute)>> {
        let mut attrs = Vec::new();
        if self.tokens.peek() != &Token::LBrace {
            return Ok(attrs);
        }
        self.tokens.bump();
        while self.tokens.peek() != &Token::RBrace {
            let key = match self.tokens.bump() {
                Token::Ident(s) => self.ctx.symbol(s),
                other => return Err(self.tokens.expected("attribute name", &other)),
            };
            self.tokens.expect(&Token::Equals)?;
            let value = match self.tokens.bump() {
                Token::Integer { value, .. }
                    if value >= i128::from(i64::MIN) && value <= i128::from(i64::MAX) =>
                {
                    self.ctx.i64_attr(value as i64)
                }
                Token::Str(s) => self.ctx.string_attr(s.into_owned()),
                Token::Ident("true") => self.ctx.bool_attr(true),
                Token::Ident("false") => self.ctx.bool_attr(false),
                other => {
                    return Err(self.tokens.expected("an integer, string, or boolean attribute value", &other))
                }
            };
            attrs.push((key, value));
            if self.tokens.peek() != &Token::Comma {
                break;
            }
            self.tokens.bump();
        }
        self.tokens.expect(&Token::RBrace)?;
        Ok(attrs)
    }

    fn parse_op_head(&mut self, vars: &mut Vec<String>) -> Result<OpHead> {
        let def = if matches!(self.tokens.peek(), Token::ValueId(_)) {
            let def = self.expect_value()?;
            self.tokens.expect(&Token::Equals)?;
            Some(slot(vars, def))
        } else {
            None
        };
        let full = match self.tokens.bump() {
            Token::Ident(s) if s.contains('.') => s,
            other => return Err(self.tokens.expected("`dialect.op`", &other)),
        };
        let (dialect, op) = full.split_once('.').expect("checked above");
        let name = self.ctx.op_name(dialect, op);
        self.tokens.expect(&Token::LParen)?;
        let mut operands = Vec::new();
        if self.tokens.peek() != &Token::RParen {
            loop {
                operands.push(slot(vars, self.expect_value()?));
                if !matches!(self.tokens.peek(), Token::Comma) {
                    break;
                }
                self.tokens.bump();
            }
        }
        self.tokens.expect(&Token::RParen)?;
        let attrs = self.parse_attr_clause()?;
        Ok((def, name, operands, attrs))
    }

    fn parse_rewrite_op(&mut self, vars: &mut Vec<String>) -> Result<RewriteOp> {
        let (def, name, operands, attrs) = self.parse_op_head(vars)?;
        let mut result_types_of = Vec::new();
        if self.tokens.peek() == &Token::Colon {
            self.tokens.bump();
            loop {
                self.tokens.expect_keyword("typeof")?;
                self.tokens.expect(&Token::LParen)?;
                result_types_of.push(slot(vars, self.expect_value()?));
                self.tokens.expect(&Token::RParen)?;
                if self.tokens.peek() != &Token::Comma {
                    break;
                }
                self.tokens.bump();
            }
        }
        if def.is_some() && result_types_of.is_empty() {
            return Err(self.tokens.error(
                "rewrite op with a result needs a `: typeof(%v)` result type",
            ));
        }
        Ok(RewriteOp { def, name, operands, attrs, result_types_of })
    }
}

impl DeclarativePattern {
    /// Attempts to match the pattern DAG rooted at `root`, returning value
    /// and operation bindings on success.
    fn try_match(&self, ctx: &Context, root: OpRef) -> Option<(Bindings, MatchedOps)> {
        let mut values: Bindings = std::iter::repeat_n(None, self.vars.len()).collect();
        let mut ops: MatchedOps = std::iter::repeat_n(None, self.match_ops.len()).collect();
        let root_index = self.match_ops.len() - 1;
        self.match_op_at(ctx, root_index, root, &mut values, &mut ops).then_some((values, ops))
    }

    fn match_op_at(
        &self,
        ctx: &Context,
        index: usize,
        candidate: OpRef,
        values: &mut Bindings,
        ops: &mut MatchedOps,
    ) -> bool {
        if let Some(bound) = ops[index] {
            return bound == candidate;
        }
        let template = &self.match_ops[index];
        if candidate.name(ctx) != template.name {
            return false;
        }
        if candidate.num_operands(ctx) != template.operands.len() {
            return false;
        }
        let expected_results = usize::from(template.def.is_some());
        if candidate.num_results(ctx) != expected_results {
            return false;
        }
        for (key, value) in &template.attrs {
            if candidate.attr_sym(ctx, *key) != Some(*value) {
                return false;
            }
        }
        ops[index] = Some(candidate);
        for (slot, operand) in template.operands.iter().enumerate() {
            let actual = candidate.operand(ctx, slot);
            let matched = match operand.producer {
                // The variable is the result of another match op.
                Some(producer) => actual
                    .defining_op(ctx)
                    .is_some_and(|def_op| self.match_op_at(ctx, producer, def_op, values, ops)),
                None => values[operand.var].is_none_or(|bound| bound == actual),
            };
            if !matched {
                ops[index] = None;
                return false;
            }
            values[operand.var] = Some(actual);
        }
        if let Some(def) = template.def {
            values[def] = Some(candidate.result(ctx, 0));
        }
        true
    }

    /// Symbolically executes [`DeclarativePattern::match_op_at`] over match
    /// DAG *positions* instead of runtime ops, emitting one predicate per
    /// check the concrete walk performs. Because every emission corresponds
    /// to a check `try_match` makes on the same position, the resulting
    /// program accepts exactly the ops `try_match` accepts — a complete
    /// (not merely conservative) lowering.
    ///
    /// `values` and `op_paths` are indexed by variable slot and match op
    /// index. Returns `None` for shapes the position encoding cannot
    /// express (operand slots beyond `u8`); such patterns fall back to
    /// opaque dispatch.
    fn lower_op(
        &self,
        index: usize,
        path: OpPath,
        preds: &mut Vec<Pred>,
        values: &mut [Option<ValuePos>],
        op_paths: &mut [Option<OpPath>],
    ) -> Option<()> {
        let template = &self.match_ops[index];
        // Mirrors the arity checks; `name` is checked by the caller (the
        // root dispatch map or the OperandDef edge leading here).
        preds.push(Pred::OperandCount {
            path: path.clone(),
            count: u8::try_from(template.operands.len()).ok()?,
        });
        preds.push(Pred::ResultCount {
            path: path.clone(),
            count: u8::from(template.def.is_some()),
        });
        for (key, value) in &template.attrs {
            preds.push(Pred::AttrEq { path: path.clone(), key: *key, value: *value });
        }
        op_paths[index] = Some(path.clone());
        for (slot, operand) in template.operands.iter().enumerate() {
            let slot = u8::try_from(slot).ok()?;
            let pos = ValuePos::Operand { path: path.clone(), index: slot };
            if let Some(producer) = operand.producer {
                match &op_paths[producer] {
                    // Revisit: `bound == candidate` in the concrete walk.
                    // The producer binds exactly one result, so op equality
                    // is value equality of this operand with that result.
                    Some(bound_path) => preds.push(Pred::ValueEq {
                        a: pos.clone(),
                        b: ValuePos::Result { path: bound_path.clone() },
                    }),
                    None => {
                        preds.push(Pred::OperandDef {
                            path: path.clone(),
                            index: slot,
                            name: self.match_ops[producer].name,
                        });
                        let mut child = path.clone();
                        child.push(slot);
                        self.lower_op(producer, child, preds, values, op_paths)?;
                    }
                }
                values[operand.var] = Some(pos);
            } else {
                match &values[operand.var] {
                    Some(first) => {
                        preds.push(Pred::ValueEq { a: first.clone(), b: pos });
                    }
                    None => {
                        values[operand.var] = Some(pos);
                    }
                }
            }
        }
        if let Some(def) = template.def {
            values[def] = Some(ValuePos::Result { path });
        }
        Some(())
    }

    /// The value bound to `var`. Parse-time validation guarantees every
    /// variable a rewrite reads is bound by then.
    fn bound(values: &Bindings, var: Var) -> Value {
        values[var].expect("parse-time validation binds every rewrite variable")
    }
}

impl RewritePattern for DeclarativePattern {
    fn root(&self) -> Option<OpName> {
        self.match_ops.last().map(|op| op.name)
    }

    fn benefit(&self) -> usize {
        self.benefit
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn match_program(&self) -> Option<MatchProgram> {
        let root_index = self.match_ops.len() - 1;
        let mut preds = Vec::new();
        self.lower_op(
            root_index,
            Vec::new(),
            &mut preds,
            &mut vec![None; self.vars.len()],
            &mut vec![None; self.match_ops.len()],
        )?;
        Some(MatchProgram { root: Some(self.match_ops[root_index].name), preds })
    }

    fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>) -> bool {
        let root = rewriter.root();
        let Some((mut values, matched)) = self.try_match(rewriter.ctx(), root) else {
            return false;
        };
        // Materialize the rewrite ops in order.
        for template in &self.rewrite_ops {
            let ctx = rewriter.ctx();
            let mut state = OperationState::new(template.name)
                .add_operands(template.operands.iter().map(|&var| Self::bound(&values, var)))
                .add_result_types(
                    template.result_types_of.iter().map(|&var| Self::bound(&values, var).ty(ctx)),
                );
            for (key, value) in &template.attrs {
                state = state.add_attribute(*key, *value);
            }
            let op = rewriter.insert_before_root(state);
            if let Some(def) = template.def {
                values[def] = Some(op.result(rewriter.ctx(), 0));
            }
        }
        rewriter.replace_root(&[Self::bound(&values, self.replace_with)]);
        // Clean up interior matched ops that became dead (skip the root,
        // which replace_root already erased).
        for &op in matched.iter().rev().flatten() {
            if op != root && op.is_live(rewriter.ctx()) {
                rewriter.erase_if_unused(op);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::rewrite_greedily;
    use irdl_ir::parse::parse_module;
    use irdl_ir::print::op_to_string;
    use irdl_ir::verify::verify_op;

    const CMATH: &str = r#"
Dialect cmath {
  Alias !FloatType = !AnyOf<!f32, !f64>
  Type complex { Parameters (elementType: !FloatType) }
  Operation mul {
    ConstraintVar (!T: !complex<!FloatType>)
    Operands (lhs: !T, rhs: !T)
    Results (res: !T)
  }
  Operation norm {
    ConstraintVar (!T: !FloatType)
    Operands (c: !complex<!T>)
    Results (res: !T)
  }
}
Dialect arith {
  Operation mulf {
    ConstraintVar (!T: !AnyFloat)
    Operands (lhs: !T, rhs: !T)
    Results (res: !T)
  }
}
"#;

    const CONORM_PATTERN: &str = r#"
Pattern conorm {
  Match {
    %n1 = cmath.norm(%p)
    %n2 = cmath.norm(%q)
    %r = arith.mulf(%n1, %n2)
  }
  Rewrite {
    %m = cmath.mul(%p, %q) : typeof(%p)
    %r2 = cmath.norm(%m) : typeof(%r)
    Replace %r with %r2
  }
}
"#;

    /// The paper's Listing 1: |p|*|q| becomes |p*q|.
    #[test]
    fn conorm_optimization_from_listing1() {
        let mut ctx = Context::new();
        irdl::register_dialects(&mut ctx, CMATH).unwrap();
        let patterns = parse_patterns(&mut ctx, CONORM_PATTERN).unwrap();
        let module = parse_module(
            &mut ctx,
            r#"
            %p = "test.arg"() : () -> !cmath.complex<f32>
            %q = "test.arg"() : () -> !cmath.complex<f32>
            %norm_p = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
            %norm_q = "cmath.norm"(%q) : (!cmath.complex<f32>) -> f32
            %pq = "arith.mulf"(%norm_p, %norm_q) : (f32, f32) -> f32
            "test.return"(%pq) : (f32) -> ()
            "#,
        )
        .unwrap();
        verify_op(&ctx, module).unwrap();
        let stats = rewrite_greedily(&mut ctx, module, &patterns);
        assert_eq!(stats.rewrites, 1);
        verify_op(&ctx, module).expect("optimized module verifies");
        let text = op_to_string(&ctx, module);
        assert!(text.contains("cmath.mul"), "{text}");
        assert!(!text.contains("arith.mulf"), "{text}");
        // Exactly one norm remains.
        assert_eq!(text.matches("cmath.norm").count(), 1, "{text}");
    }

    /// The pattern must not fire when the operands of mulf come from
    /// different computations than two norms.
    #[test]
    fn conorm_pattern_does_not_overfire() {
        let mut ctx = Context::new();
        irdl::register_dialects(&mut ctx, CMATH).unwrap();
        let patterns = parse_patterns(&mut ctx, CONORM_PATTERN).unwrap();
        let module = parse_module(
            &mut ctx,
            r#"
            %a = "test.arg"() : () -> f32
            %p = "test.arg"() : () -> !cmath.complex<f32>
            %norm_p = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
            %x = "arith.mulf"(%norm_p, %a) : (f32, f32) -> f32
            "#,
        )
        .unwrap();
        let stats = rewrite_greedily(&mut ctx, module, &patterns);
        assert_eq!(stats.rewrites, 0);
    }

    #[test]
    fn repeated_variable_requires_equal_values() {
        let mut ctx = Context::new();
        irdl::register_dialects(
            &mut ctx,
            "Dialect toy {
               Operation add { Operands (a: !i32, b: !i32) Results (r: !i32) }
               Operation double { Operands (x: !i32) Results (r: !i32) }
             }",
        )
        .unwrap();
        let patterns = parse_patterns(
            &mut ctx,
            "Pattern p { Match { %r = toy.add(%x, %x) } Rewrite { %d = toy.double(%x) : typeof(%x) Replace %r with %d } }",
        )
        .unwrap();
        let module = parse_module(
            &mut ctx,
            r#"
            %a = "test.arg"() : () -> i32
            %b = "test.arg"() : () -> i32
            %same = "toy.add"(%a, %a) : (i32, i32) -> i32
            %diff = "toy.add"(%a, %b) : (i32, i32) -> i32
            "test.keep"(%same, %diff) : (i32, i32) -> ()
            "#,
        )
        .unwrap();
        let stats = rewrite_greedily(&mut ctx, module, &patterns);
        assert_eq!(stats.rewrites, 1, "only add(%a, %a) matches");
        let text = op_to_string(&ctx, module);
        assert!(text.contains("toy.double"), "{text}");
        assert!(text.contains("toy.add"), "{text}");
    }

    /// `benefit N` steers which of two competing patterns wins.
    #[test]
    fn benefit_clause_orders_competing_patterns() {
        let mut ctx = Context::new();
        irdl::register_dialects(
            &mut ctx,
            "Dialect toy {
               Operation add { Operands (a: !i32, b: !i32) Results (r: !i32) }
               Operation double { Operands (x: !i32) Results (r: !i32) }
               Operation fast { Operands (x: !i32) Results (r: !i32) }
             }",
        )
        .unwrap();
        let patterns = parse_patterns(
            &mut ctx,
            "Pattern slow { Match { %r = toy.add(%x, %x) } Rewrite { %d = toy.double(%x) : typeof(%x) Replace %r with %d } }
             Pattern quick benefit 10 { Match { %r = toy.add(%x, %x) } Rewrite { %d = toy.fast(%x) : typeof(%x) Replace %r with %d } }",
        )
        .unwrap();
        assert_eq!(patterns.patterns()[0].name(), "quick");
        assert_eq!(patterns.patterns()[0].benefit(), 10);
        assert_eq!(patterns.patterns()[1].benefit(), 1);
        let module = parse_module(
            &mut ctx,
            r#"
            %a = "test.arg"() : () -> i32
            %s = "toy.add"(%a, %a) : (i32, i32) -> i32
            "test.keep"(%s) : (i32) -> ()
            "#,
        )
        .unwrap();
        let stats = rewrite_greedily(&mut ctx, module, &patterns);
        assert_eq!(stats.rewrites, 1);
        let text = op_to_string(&ctx, module);
        assert!(text.contains("toy.fast"), "higher benefit wins: {text}");

        let err = parse_patterns(&mut ctx, "Pattern p benefit 0 { Match { %r = a.b(%x) } Rewrite { Replace %r with %x } }")
            .unwrap_err();
        assert!(err.to_string().contains("positive benefit"), "{err}");
    }

    #[test]
    fn malformed_pattern_is_an_error() {
        let mut ctx = Context::new();
        // Missing Replace.
        let err = parse_patterns(
            &mut ctx,
            "Pattern p { Match { %r = a.b(%x) } Rewrite { } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("Replace"), "{err}");
        // Replace target is not the root result.
        let err = parse_patterns(
            &mut ctx,
            "Pattern p { Match { %r = a.b(%x) } Rewrite { Replace %x with %r } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("root"), "{err}");
    }

    /// A match op that no producer edge leads to from the root could
    /// never be bound; the parser rejects it instead of matching without it.
    #[test]
    fn match_op_outside_the_root_dag_is_a_parse_error() {
        let mut ctx = Context::new();
        let err = parse_patterns(
            &mut ctx,
            "Pattern p { Match { %x = a.f(%y) %r = a.g(%z) } Rewrite { Replace %r with %y } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("`a.f` does not feed the root"), "{err}");
    }

    #[test]
    fn unbound_rewrite_variable_is_a_parse_error() {
        let mut ctx = Context::new();
        let err = parse_patterns(
            &mut ctx,
            "Pattern p { Match { %r = a.b(%x) } Rewrite { %d = a.c(%ghost) : typeof(%x) Replace %r with %d } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("%ghost"), "{err}");
        let err = parse_patterns(
            &mut ctx,
            "Pattern p { Match { %r = a.b(%x) } Rewrite { %d = a.c(%x) : typeof(%nope) Replace %r with %d } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("%nope"), "{err}");
    }

    /// The `{key = literal}` clause constrains matches and decorates
    /// rewritten ops.
    #[test]
    fn attribute_clause_constrains_match_and_sets_on_rewrite() {
        let mut ctx = Context::new();
        irdl::register_dialects(
            &mut ctx,
            "Dialect toy {
               Operation cst { Results (r: !i32) }
               Operation zero { Results (r: !i32) }
             }",
        )
        .unwrap();
        let patterns = parse_patterns(
            &mut ctx,
            r#"Pattern zero_cst {
                 Match { %r = toy.cst() {value = 0} }
                 Rewrite {
                   %z = toy.zero() {origin = "folded", checked = true} : typeof(%r)
                   Replace %r with %z
                 }
               }"#,
        )
        .unwrap();
        let module = parse_module(
            &mut ctx,
            r#"
            %a = "toy.cst"() {value = 0 : i64} : () -> i32
            %b = "toy.cst"() {value = 7 : i64} : () -> i32
            "test.keep"(%a, %b) : (i32, i32) -> ()
            "#,
        )
        .unwrap();
        let stats = rewrite_greedily(&mut ctx, module, &patterns);
        assert_eq!(stats.rewrites, 1, "only the value = 0 constant folds");
        let text = op_to_string(&ctx, module);
        assert!(text.contains("toy.zero"), "{text}");
        assert!(text.contains("origin = \"folded\""), "{text}");
        assert!(text.contains("checked = true"), "{text}");
        assert!(text.contains("value = 7"), "{text}");

        let err = parse_patterns(
            &mut ctx,
            "Pattern p { Match { %r = toy.cst() {value = %x} } Rewrite { Replace %r with %r } }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("attribute value"), "{err}");
    }

    /// Every declarative pattern lowers to a predicate program whose
    /// accepted set (over a module exercising partial matches, shared
    /// values, and repeated variables) equals `try_match`'s.
    #[test]
    fn lowered_programs_agree_with_try_match() {
        use crate::matcher::PatternMatcher;
        use irdl_ir::walk::collect_ops;

        let mut ctx = Context::new();
        irdl::register_dialects(&mut ctx, CMATH).unwrap();
        irdl::register_dialects(
            &mut ctx,
            "Dialect toy {
               Operation add { Operands (a: !i32, b: !i32) Results (r: !i32) }
               Operation double { Operands (x: !i32) Results (r: !i32) }
             }",
        )
        .unwrap();
        let mut source = CONORM_PATTERN.to_string();
        source.push_str(
            "Pattern same { Match { %r = toy.add(%x, %x) } Rewrite { %d = toy.double(%x) : typeof(%x) Replace %r with %d } }
             Pattern dd { Match { %a = toy.double(%x) %r = toy.double(%a) } Rewrite { Replace %r with %x } }",
        );
        // Parse through the module-private parser to keep the concrete
        // `DeclarativePattern` values (try_match is not on the trait).
        let mut parser = DslParser { ctx: &mut ctx, tokens: TokenStream::new(&source) };
        let mut declarative: Vec<DeclarativePattern> = Vec::new();
        while parser.tokens.peek() != &Token::Eof {
            declarative.push(parser.parse_pattern().unwrap());
        }
        // All benefit 1: the stable sort keeps declaration order, so set
        // positions line up with `declarative` indices.
        let patterns: PatternSet = declarative
            .iter()
            .map(|p| std::sync::Arc::new(p.clone()) as std::sync::Arc<dyn RewritePattern>)
            .collect();
        for pattern in patterns.patterns() {
            assert!(pattern.match_program().is_some(), "{} should lower", pattern.name());
        }
        let module = parse_module(
            &mut ctx,
            r#"
            %p = "test.arg"() : () -> !cmath.complex<f32>
            %q = "test.arg"() : () -> !cmath.complex<f32>
            %np = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
            %nq = "cmath.norm"(%q) : (!cmath.complex<f32>) -> f32
            %good = "arith.mulf"(%np, %nq) : (f32, f32) -> f32
            %bad = "arith.mulf"(%np, %good) : (f32, f32) -> f32
            %a = "test.arg"() : () -> i32
            %b = "test.arg"() : () -> i32
            %same = "toy.add"(%a, %a) : (i32, i32) -> i32
            %diff = "toy.add"(%a, %b) : (i32, i32) -> i32
            %d1 = "toy.double"(%a) : (i32) -> i32
            %d2 = "toy.double"(%d1) : (i32) -> i32
            "test.keep"(%bad, %same, %diff, %d2) : (f32, i32, i32, i32) -> ()
            "#,
        )
        .unwrap();
        let matcher = PatternMatcher::compile(patterns.patterns());
        let mut automaton_accepts = 0usize;
        for op in collect_ops(&ctx, module) {
            let accepted = matcher.matches(&ctx, op);
            for (position, pattern) in declarative.iter().enumerate() {
                let direct = pattern.try_match(&ctx, op).is_some();
                let via_program = accepted.contains(&(position as u32));
                // Lowering is complete, not just conservative: the program
                // accepts exactly where try_match succeeds.
                assert_eq!(
                    direct,
                    via_program,
                    "pattern `{}` at {}",
                    pattern.name,
                    op.name(&ctx).display(&ctx),
                );
                automaton_accepts += usize::from(via_program);
            }
        }
        // Sanity: the module was built so some patterns do accept.
        assert!(automaton_accepts >= 3, "{automaton_accepts}");
    }

    #[test]
    fn interior_op_with_other_uses_is_kept() {
        let mut ctx = Context::new();
        irdl::register_dialects(&mut ctx, CMATH).unwrap();
        let patterns = parse_patterns(&mut ctx, CONORM_PATTERN).unwrap();
        let module = parse_module(
            &mut ctx,
            r#"
            %p = "test.arg"() : () -> !cmath.complex<f32>
            %q = "test.arg"() : () -> !cmath.complex<f32>
            %norm_p = "cmath.norm"(%p) : (!cmath.complex<f32>) -> f32
            %norm_q = "cmath.norm"(%q) : (!cmath.complex<f32>) -> f32
            %pq = "arith.mulf"(%norm_p, %norm_q) : (f32, f32) -> f32
            "test.keep"(%norm_p, %pq) : (f32, f32) -> ()
            "#,
        )
        .unwrap();
        let stats = rewrite_greedily(&mut ctx, module, &patterns);
        assert_eq!(stats.rewrites, 1);
        let text = op_to_string(&ctx, module);
        // norm_p still has a use in test.keep, so exactly two norms remain:
        // the kept one and the new norm(mul).
        assert_eq!(text.matches("cmath.norm").count(), 2, "{text}");
        verify_op(&ctx, module).unwrap();
    }

    /// The first lex error anywhere in the source is the diagnostic,
    /// whatever the parser made of the tokens before it.
    #[test]
    fn lex_errors_take_precedence_over_parse_errors() {
        let after_valid = format!("{CONORM_PATTERN}`");
        let cases = [
            // A parse error on line 1, a lex error on line 2.
            ("Pattern p { Typo }\nPattern q { \"\\q\" }".to_string(), 33, "unknown escape `\\q`"),
            // A lex error right after a complete, valid pattern.
            (after_valid.clone(), after_valid.len() - 1, "unexpected character ```"),
            // A lex error where the next operand should start.
            ("Pattern p { Match { %r = cmath.norm(`) } }".to_string(), 36, "unexpected character ```"),
        ];
        for (source, offset, message) in cases {
            let mut ctx = Context::new();
            irdl::register_dialects(&mut ctx, CMATH).unwrap();
            let err = parse_patterns(&mut ctx, &source).unwrap_err();
            assert_eq!((err.offset(), err.message()), (Some(offset), message), "{source}");
        }
    }
}
