//! Declarative assembly formats (paper §4.7).
//!
//! An operation may declare `Format "$lhs, $rhs : $T.elementType"`; this
//! module compiles such strings into a parser/printer pair. Directives
//! reference operands, declared attributes, or constraint variables —
//! optionally navigating into a parameter of the variable's value. Parsing
//! reconstructs operand and result types by solving the operation's
//! constraints under the bindings gathered from the format, which is how
//! `%r = cmath.mul %p, %q : f32` round-trips without spelling out
//! `!cmath.complex<f32>` anywhere.

use std::sync::Arc;

use irdl_ir::diag::{Diagnostic, Result};
use irdl_ir::lexer::{lex, Lexer, Token};
use irdl_ir::parse::OpParser;
use irdl_ir::print::Printer;
use irdl_ir::{Context, OperationState, OpRef, Symbol};

use crate::ast::Variadicity;
use crate::constraint::{CVal, Constraint};
use crate::program::{take_ctx_scratch, with_ctx_scratch, EvalScratch};
use crate::verifier::CompiledOp;

/// One element of a compiled format.
#[derive(Debug, Clone)]
enum FormatElem {
    /// Literal text, printed verbatim and matched token by token when
    /// parsing.
    Literal(String),
    /// `$name` where `name` is the i-th operand definition.
    Operand(usize),
    /// `$name` where `name` is the i-th declared attribute.
    Attr(usize),
    /// `$T` / `$T.param` where `T` is a constraint variable.
    VarPath {
        var: u32,
        path: Vec<String>,
    },
}

/// A compiled declarative format; implements [`irdl_ir::OpSyntax`].
pub struct FormatSpec {
    elems: Vec<FormatElem>,
    op: Arc<CompiledOp>,
}

impl std::fmt::Debug for FormatSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FormatSpec").field("elems", &self.elems).finish()
    }
}

impl FormatSpec {
    /// Compiles a format string against a compiled operation.
    ///
    /// # Errors
    ///
    /// Rejects unknown directive names, directives for variadic
    /// definitions, and formats that do not cover every operand.
    pub fn compile(format: &str, op: Arc<CompiledOp>) -> Result<FormatSpec> {
        // Regions and successors have no format directives; an op declaring
        // them cannot round-trip through a declarative format.
        if !op.regions.is_empty() {
            return Err(Diagnostic::new(
                "operations with regions cannot use a declarative format",
            ));
        }
        if op.successors.is_some() {
            return Err(Diagnostic::new(
                "terminator operations cannot use a declarative format",
            ));
        }
        for def in &op.results {
            if !matches!(def.variadicity, Variadicity::Single) {
                return Err(Diagnostic::new(format!(
                    "result `{}` is variadic; declarative formats support only \
                     single results",
                    def.name
                )));
            }
        }
        let mut elems = Vec::new();
        let mut literal = String::new();
        let mut chars = format.char_indices().peekable();
        let mut covered_operands = vec![false; op.operands.len()];
        while let Some((pos, ch)) = chars.next() {
            if ch != '$' {
                literal.push(ch);
                continue;
            }
            if !literal.is_empty() {
                elems.push(FormatElem::Literal(checked_literal(std::mem::take(&mut literal))?));
            }
            // Read `ident(.ident)*`.
            let mut name = String::new();
            while let Some((_, c)) = chars.peek() {
                if c.is_ascii_alphanumeric() || *c == '_' {
                    name.push(*c);
                    chars.next();
                } else {
                    break;
                }
            }
            if name.is_empty() {
                return Err(Diagnostic::new(format!(
                    "format has a bare `$` at offset {pos}"
                )));
            }
            let mut path = Vec::new();
            while matches!(chars.peek(), Some((_, '.'))) {
                chars.next();
                let mut seg = String::new();
                while let Some((_, c)) = chars.peek() {
                    if c.is_ascii_alphanumeric() || *c == '_' {
                        seg.push(*c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if seg.is_empty() {
                    return Err(Diagnostic::new("format has a trailing `.` in a directive"));
                }
                path.push(seg);
            }
            // Resolve the directive name.
            if let Some(i) = op.operands.iter().position(|a| a.name == name) {
                if !path.is_empty() {
                    return Err(Diagnostic::new(format!(
                        "operand directive `${name}` cannot have a parameter path"
                    )));
                }
                if !matches!(op.operands[i].variadicity, Variadicity::Single) {
                    return Err(Diagnostic::new(format!(
                        "operand `${name}` is variadic; declarative formats support only \
                         single operands"
                    )));
                }
                covered_operands[i] = true;
                elems.push(FormatElem::Operand(i));
            } else if let Some(i) = op.attributes.iter().position(|(k, _)| *k == name) {
                if !path.is_empty() {
                    return Err(Diagnostic::new(format!(
                        "attribute directive `${name}` cannot have a parameter path"
                    )));
                }
                elems.push(FormatElem::Attr(i));
            } else if let Some(v) = op.var_names.iter().position(|n| *n == name) {
                elems.push(FormatElem::VarPath { var: v as u32, path });
            } else {
                return Err(Diagnostic::new(format!(
                    "format directive `${name}` names no operand, attribute, or \
                     constraint variable"
                )));
            }
        }
        if !literal.is_empty() {
            elems.push(FormatElem::Literal(checked_literal(literal)?));
        }
        if let Some(i) = covered_operands.iter().position(|c| !c) {
            return Err(Diagnostic::new(format!(
                "format does not cover operand `{}`; its value could not be parsed back",
                op.operands[i].name
            )));
        }
        Ok(FormatSpec { elems, op })
    }

    /// Binds the constraint variables implied by an existing operation, by
    /// evaluating all declarative constraints against its actual types.
    /// Failures are ignored; a failed conjunction keeps its prefix's
    /// bindings.
    fn bind_vars(&self, ctx: &Context, op: OpRef, scratch: &mut EvalScratch) {
        let program = self.op.program();
        scratch.reset(self.op.program().num_vars());
        for (&root, value) in self.op.operand_roots().iter().zip(op.operands(ctx)) {
            program.check(ctx, root, CVal::Type(value.ty(ctx)), scratch);
        }
        for (&root, &ty) in self.op.result_roots().iter().zip(op.result_types(ctx)) {
            program.check(ctx, root, CVal::Type(ty), scratch);
        }
        for &(key, root) in self.op.attr_roots() {
            if let Some(value) = op.attr_sym(ctx, key) {
                program.check(ctx, root, CVal::from_attr(ctx, value), scratch);
            }
        }
    }

    fn navigate(
        &self,
        ctx: &Context,
        mut val: CVal,
        path: &[String],
    ) -> Result<CVal> {
        for segment in path {
            let (params, index) = match val {
                CVal::Type(ty) => {
                    let (dialect, name) = ty.parametric_name(ctx).ok_or_else(|| {
                        Diagnostic::new(format!(
                            "cannot navigate `.{segment}`: {} has no parameters",
                            val.display(ctx)
                        ))
                    })?;
                    (ty.params(ctx), param_index(ctx, dialect, name, true, segment))
                }
                CVal::Attr(attr) => {
                    let (dialect, name) = attr.parametric_name(ctx).ok_or_else(|| {
                        Diagnostic::new(format!(
                            "cannot navigate `.{segment}`: {} has no parameters",
                            val.display(ctx)
                        ))
                    })?;
                    let params: &[irdl_ir::Attribute] = match ctx.attr_data(attr) {
                        irdl_ir::AttrData::Parametric { params, .. } => params,
                        _ => &[],
                    };
                    (params, param_index(ctx, dialect, name, false, segment))
                }
            };
            let index = index.ok_or_else(|| {
                Diagnostic::new(format!(
                    "{} has no parameter named `{segment}`",
                    val.display(ctx)
                ))
            })?;
            val = CVal::from_attr(ctx, params[index]);
        }
        Ok(val)
    }
}

fn param_index(
    ctx: &Context,
    dialect: Symbol,
    name: Symbol,
    is_type: bool,
    param: &str,
) -> Option<usize> {
    let names = if is_type {
        &ctx.registry().type_def(dialect, name)?.param_names
    } else {
        &ctx.registry().attr_def(dialect, name)?.param_names
    };
    names.iter().position(|n| ctx.symbol_str(*n) == param)
}

impl irdl_ir::OpSyntax for FormatSpec {
    fn print(&self, ctx: &Context, op: OpRef, printer: &mut Printer<'_>) {
        with_ctx_scratch(ctx, |scratch| self.print_with(ctx, op, printer, scratch));
    }

    fn parse(&self, parser: &mut OpParser<'_, '_, '_>) -> Result<OperationState> {
        let mut scratch = take_ctx_scratch(parser.ctx_ref());
        let result = self.parse_with(parser, &mut scratch);
        parser.ctx_ref().put_eval_scratch(scratch);
        result
    }
}

impl FormatSpec {
    fn print_with(
        &self,
        ctx: &Context,
        op: OpRef,
        printer: &mut Printer<'_>,
        scratch: &mut EvalScratch,
    ) {
        self.bind_vars(ctx, op, scratch);
        printer.token(" ");
        for elem in &self.elems {
            match elem {
                FormatElem::Literal(text) => printer.token(text),
                FormatElem::Operand(i) => {
                    let value = op.operand(ctx, *i);
                    printer.print_value(ctx, value);
                }
                FormatElem::Attr(i) => {
                    let (key, _) = self.op.attr_roots()[*i];
                    if let Some(value) = op.attr_sym(ctx, key) {
                        printer.print_attribute(ctx, value);
                    }
                }
                FormatElem::VarPath { var, path } => {
                    let Some(bound) = scratch.binding(*var) else {
                        printer.token("<unbound>");
                        continue;
                    };
                    match self.navigate(ctx, bound, path) {
                        Ok(CVal::Type(ty)) => printer.print_type(ctx, ty),
                        Ok(CVal::Attr(attr)) => printer.print_attribute(ctx, attr),
                        Err(_) => printer.token("<unnavigable>"),
                    }
                }
            }
        }
        // Attributes not covered by the format are printed as a trailing
        // dictionary.
        let covered = |key: Symbol| {
            let attrs = self.op.attr_roots();
            self.elems.iter().any(|e| matches!(e, FormatElem::Attr(i) if attrs[*i].0 == key))
        };
        let mut extra = op.attributes(ctx).iter().filter(|(key, _)| !covered(*key)).peekable();
        if extra.peek().is_some() {
            printer.token(" {");
            for (i, &(key, value)) in extra.enumerate() {
                if i > 0 {
                    printer.token(", ");
                }
                printer.token(ctx.symbol_str(key));
                printer.token(" = ");
                printer.print_attribute(ctx, value);
            }
            printer.token("}");
        }
    }

    fn parse_with(
        &self,
        parser: &mut OpParser<'_, '_, '_>,
        scratch: &mut EvalScratch,
    ) -> Result<OperationState> {
        let name = parser.op_name();
        // Inline buffers: parsing a typical declarative-format op performs
        // no heap allocation on this path.
        let mut operands: irdl_ir::InlineVec<Option<irdl_ir::Value>, 4> =
            (0..self.op.operand_roots().len()).map(|_| None).collect();
        let mut attrs: irdl_ir::AttrList = irdl_ir::AttrList::new();
        let mut direct: irdl_ir::InlineVec<(u32, CVal), 4> = irdl_ir::InlineVec::new();
        let mut paths: irdl_ir::InlineVec<(u32, &[String], CVal), 2> = irdl_ir::InlineVec::new();

        for elem in &self.elems {
            match elem {
                FormatElem::Literal(text) => expect_literal(text, |token| parser.expect(token))?,
                FormatElem::Operand(i) => {
                    operands[*i] = Some(parser.parse_operand()?);
                }
                FormatElem::Attr(i) => {
                    let value = parser.parse_attribute()?;
                    attrs.push((self.op.attr_roots()[*i].0, value));
                }
                FormatElem::VarPath { var, path } => {
                    let attr = parser.parse_attribute()?;
                    let val = CVal::from_attr(parser.ctx_ref(), attr);
                    if path.is_empty() {
                        direct.push((*var, val));
                    } else {
                        paths.push((*var, path, val));
                    }
                }
            }
        }

        // Optional trailing attribute dictionary.
        let mut state = OperationState::new(name);
        parser.parse_optional_attr_dict(&mut state)?;

        // --- solve for constraint variables -------------------------------
        let program = self.op.program();
        scratch.reset(self.op.program().num_vars());
        for (var, val) in &direct {
            if let Some(existing) = scratch.binding(*var) {
                if existing != *val {
                    return Err(parser.error(format!(
                        "conflicting values for constraint variable `{}`",
                        self.op.var_names[*var as usize]
                    )));
                }
            }
            scratch.bind(*var, *val);
        }
        // Bind through the operand constraints (operand types are known).
        for operand in operands.iter() {
            let value = operand.expect("format compile guarantees operand coverage");
            state.operands.push(value);
        }
        // The declaration is read only to render a rejection.
        for (i, (&root, value)) in self.op.operand_roots().iter().zip(&state.operands).enumerate() {
            let ty = CVal::Type(value.ty(parser.ctx_ref()));
            program.check_explained(parser.ctx_ref(), root, ty, scratch).map_err(|e| {
                parser.error(format!("operand `{}`: {e}", self.op.operands[i].name))
            })?;
        }
        // Solve parameter-path assignments.
        for &(var, path, val) in paths.iter() {
            self.solve_path(parser.ctx(), var, path, val, scratch)
                .map_err(|d| d.or_offset(parser.offset()))?;
        }

        // --- infer result types ----------------------------------------------
        for (i, &root) in self.op.result_roots().iter().enumerate() {
            match program.concretize(parser.ctx(), root, scratch) {
                Some(CVal::Type(ty)) => state.result_types.push(ty),
                _ => {
                    return Err(parser.error(format!(
                        "cannot infer the type of result `{}` from the format",
                        self.op.results[i].name
                    )))
                }
            }
        }

        for &(key, value) in attrs.iter() {
            state.attributes.push((key, value));
        }
        Ok(state)
    }
}

/// Lexes a literal chunk once at compile time, so a literal that is not
/// valid IR text is rejected before any parse relies on it.
fn checked_literal(text: String) -> Result<String> {
    match lex(&text) {
        Ok(_) => Ok(text),
        Err(e) => Err(Diagnostic::new(format!("invalid format literal `{text}`: {e}"))),
    }
}

/// Lexes a literal chunk and requires each of its tokens in turn.
fn expect_literal(text: &str, mut expect: impl FnMut(&Token<'_>) -> Result<()>) -> Result<()> {
    let mut lexer = Lexer::new(text);
    loop {
        match lexer.next_token()?.token {
            Token::Eof => return Ok(()),
            token => expect(&token)?,
        }
    }
}

/// A declarative format for type/attribute parameter lists (paper §4.7:
/// "operations and types can define a custom declarative format").
///
/// Directives reference parameters by name; everything else is literal
/// text matched token-by-token. The `!dialect.name<` ... `>` shell is
/// handled by the framework, so a format like `"$width x $signed"` prints
/// `!ints.integer<32 : i32 x #ints.signedness<Signed>>`.
pub struct ParamsFormatSpec {
    elems: Vec<ParamsFormatElem>,
}

#[derive(Debug, Clone)]
enum ParamsFormatElem {
    Literal(String),
    Param(usize),
}

impl std::fmt::Debug for ParamsFormatSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParamsFormatSpec").field("elems", &self.elems).finish()
    }
}

impl ParamsFormatSpec {
    /// Compiles a parameter-format string against the declared
    /// parameters.
    ///
    /// # Errors
    ///
    /// Rejects unknown directives and formats that do not cover every
    /// parameter (an uncovered parameter could not be parsed back).
    pub fn compile(format: &str, params: &[(String, Constraint)]) -> Result<ParamsFormatSpec> {
        let mut elems = Vec::new();
        let mut literal = String::new();
        let mut covered = vec![false; params.len()];
        let mut chars = format.chars().peekable();
        while let Some(ch) = chars.next() {
            if ch != '$' {
                literal.push(ch);
                continue;
            }
            if !literal.is_empty() {
                let text = std::mem::take(&mut literal);
                elems.push(ParamsFormatElem::Literal(checked_literal(text)?));
            }
            let mut name = String::new();
            while let Some(c) = chars.peek() {
                if c.is_ascii_alphanumeric() || *c == '_' {
                    name.push(*c);
                    chars.next();
                } else {
                    break;
                }
            }
            let index = params.iter().position(|(p, _)| *p == name).ok_or_else(|| {
                Diagnostic::new(format!("format directive `${name}` names no parameter"))
            })?;
            covered[index] = true;
            elems.push(ParamsFormatElem::Param(index));
        }
        if !literal.is_empty() {
            elems.push(ParamsFormatElem::Literal(checked_literal(literal)?));
        }
        if let Some(i) = covered.iter().position(|c| !c) {
            return Err(Diagnostic::new(format!(
                "format does not cover parameter `{}`",
                params[i].0
            )));
        }
        Ok(ParamsFormatSpec { elems })
    }
}

impl irdl_ir::dialect::ParamsSyntax for ParamsFormatSpec {
    fn print(&self, ctx: &Context, params: &[irdl_ir::Attribute], printer: &mut Printer<'_>) {
        for elem in &self.elems {
            match elem {
                ParamsFormatElem::Literal(text) => printer.token(text),
                ParamsFormatElem::Param(i) => {
                    if let Some(param) = params.get(*i) {
                        printer.print_attribute(ctx, *param);
                    }
                }
            }
        }
    }

    fn parse(&self, parser: &mut irdl_ir::parse::ParamParser<'_, '_, '_>) -> Result<()> {
        // Compilation guarantees every parameter is covered.
        for elem in &self.elems {
            match elem {
                ParamsFormatElem::Literal(text) => {
                    expect_literal(text, |token| parser.expect(token))?
                }
                ParamsFormatElem::Param(i) => {
                    let param = parser.parse_attribute()?;
                    parser.set_param(*i, param);
                }
            }
        }
        Ok(())
    }
}

impl FormatSpec {
    /// Solves `$T.param = value`: either checks it against an existing
    /// binding of `T`, or reconstructs `T` from its declared parametric
    /// constraint with the parameter pinned to `value`.
    fn solve_path(
        &self,
        ctx: &mut Context,
        var: u32,
        path: &[String],
        val: CVal,
        scratch: &mut EvalScratch,
    ) -> Result<()> {
        if let Some(bound) = scratch.binding(var) {
            // Already known (e.g. from an operand): check consistency.
            let navigated = self.navigate(ctx, bound, path)?;
            if navigated != val {
                return Err(Diagnostic::new(format!(
                    "`${}.{}` is {} but the bound value implies {}",
                    self.op.var_names[var as usize],
                    path.join("."),
                    val.display(ctx),
                    navigated.display(ctx)
                )));
            }
            return Ok(());
        }
        if path.len() != 1 {
            return Err(Diagnostic::new(
                "only single-level parameter paths can drive type inference",
            ));
        }
        let program = self.op.program();
        let decl = program.var_root(var).expect("format variables are declared");
        let Some((dialect, name, params)) = program.parametric_type(decl) else {
            return Err(Diagnostic::new(format!(
                "constraint variable `{}` is not declared with a parametric type; \
                 `$var.param` cannot reconstruct it",
                self.op.var_names[var as usize]
            )));
        };
        let target =
            param_index(ctx, dialect, name, true, &path[0]).ok_or_else(|| {
                Diagnostic::new(format!(
                    "type {}.{} has no parameter named `{}`",
                    ctx.symbol_str(dialect),
                    ctx.symbol_str(name),
                    path[0]
                ))
            })?;
        let mut args = Vec::with_capacity(params.len());
        for (i, &pc) in params.iter().enumerate() {
            let v = if i == target {
                val
            } else {
                program.concretize(ctx, pc, scratch).ok_or_else(|| {
                    Diagnostic::new(format!(
                        "cannot infer parameter #{i} of `${}`",
                        self.op.var_names[var as usize]
                    ))
                })?
            };
            args.push(v.into_attr(ctx));
        }
        let ty = ctx
            .parametric_type_syms(dialect, name, args)
            .map_err(|d| d.with_note("while reconstructing a format type"))?;
        // The reconstructed value must satisfy the variable's declaration.
        program.check_explained(ctx, decl, CVal::Type(ty), scratch).map_err(Diagnostic::new)?;
        scratch.bind(var, CVal::Type(ty));
        Ok(())
    }
}
