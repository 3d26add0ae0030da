//! Parser for the IRDL language.
//!
//! The concrete syntax follows the paper's listings: a `Dialect` block
//! containing `Type`, `Attribute`, `Alias`, `Enum`, `Constraint`,
//! `TypeOrAttrParam`, and `Operation` definitions. Tokens stream from the
//! same lexer the IR textual format uses ([`irdl_ir::lexer::TokenStream`]),
//! so a lex error anywhere in a spec is reported ahead of any parse error.

use irdl_ir::diag::{Diagnostic, Result};
use irdl_ir::lexer::{Token, TokenStream};

use crate::ast::*;

/// Parses an IRDL source file.
///
/// # Errors
///
/// Returns a diagnostic carrying a byte offset into `source`.
///
/// # Example
///
/// ```
/// let file = irdl::parser::parse_irdl(
///     "Dialect cmath {\n  Type complex { Parameters (elementType: !AnyType) }\n}",
/// )?;
/// assert_eq!(file.dialects[0].name, "cmath");
/// # Ok::<(), irdl_ir::Diagnostic>(())
/// ```
pub fn parse_irdl(source: &str) -> Result<SourceFile> {
    let mut parser = IrdlParser { tokens: TokenStream::new(source) };
    let result = parser.parse_dialects().map(|dialects| SourceFile { dialects });
    parser.tokens.finish(result)
}

/// Parses a single constraint expression from `source` (e.g.
/// `"!complex<!AnyOf<!f32, !f64>>"`).
///
/// # Errors
///
/// Returns a diagnostic on malformed input or trailing tokens.
pub fn parse_constraint_expr_str(source: &str) -> Result<crate::ast::ConstraintExpr> {
    let mut parser = IrdlParser { tokens: TokenStream::new(source) };
    let result = parser.parse_constraint_expr();
    let result = result.and_then(|expr| parser.tokens.expect_eof().map(|()| expr));
    parser.tokens.finish(result)
}

struct IrdlParser<'s> {
    tokens: TokenStream<'s>,
}

impl<'s> IrdlParser<'s> {
    fn expect_ident(&mut self) -> Result<String> {
        Ok(self.tokens.expect_ident()?.to_string())
    }

    /// Peeks the text of an identifier token, if one is next.
    fn peek_ident(&self) -> Option<&'s str> {
        match self.tokens.peek() {
            Token::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn expect_string(&mut self) -> Result<String> {
        match self.tokens.peek() {
            Token::Str(_) => {
                let Token::Str(s) = self.tokens.bump() else { unreachable!() };
                Ok(s.into_owned())
            }
            other => Err(self.tokens.expected("string literal", other)),
        }
    }

    // ----- dialect & items ---------------------------------------------------

    fn parse_dialects(&mut self) -> Result<Vec<DialectDef>> {
        let mut dialects = Vec::new();
        while self.tokens.peek() != &Token::Eof {
            dialects.push(self.parse_dialect()?);
        }
        Ok(dialects)
    }

    fn parse_dialect(&mut self) -> Result<DialectDef> {
        let span = self.tokens.offset();
        self.tokens.expect_keyword("Dialect")?;
        let name = self.expect_ident()?;
        self.tokens.expect(&Token::LBrace)?;
        let mut summary = None;
        let mut items = Vec::new();
        while !self.tokens.consume_if(&Token::RBrace) {
            match self.peek_ident() {
                Some(kw) => match kw {
                    "Summary" => {
                        self.tokens.bump();
                        summary = Some(self.expect_string()?);
                    }
                    "Type" => items.push(Item::Type(self.parse_type_attr_def()?)),
                    "Attribute" => items.push(Item::Attribute(self.parse_type_attr_def()?)),
                    "Alias" => items.push(Item::Alias(self.parse_alias()?)),
                    "Enum" => items.push(Item::Enum(self.parse_enum()?)),
                    "Constraint" => items.push(Item::Constraint(self.parse_constraint_def()?)),
                    "TypeOrAttrParam" => {
                        items.push(Item::TypeOrAttrParam(self.parse_param_def()?))
                    }
                    "Operation" => items.push(Item::Operation(self.parse_op_def()?)),
                    other => {
                        return Err(self.tokens.error(format!("unknown dialect item `{other}`")));
                    }
                },
                None if self.tokens.peek() == &Token::Eof => {
                    return Err(self.tokens.error("unterminated dialect body"))
                }
                None => return Err(self.tokens.expected("dialect item", self.tokens.peek())),
            }
        }
        Ok(DialectDef { name, summary, items, span })
    }

    fn parse_type_attr_def(&mut self) -> Result<TypeAttrDef> {
        let span = self.tokens.offset();
        self.tokens.bump(); // `Type` or `Attribute`
        let name = self.expect_ident()?;
        self.tokens.expect(&Token::LBrace)?;
        let mut def = TypeAttrDef {
            name,
            parameters: Vec::new(),
            summary: None,
            native_verifier: None,
            format: None,
            span,
        };
        while !self.tokens.consume_if(&Token::RBrace) {
            match self.peek_ident() {
                Some(kw) => match kw {
                    "Parameters" => {
                        self.tokens.bump();
                        def.parameters = self.parse_named_constraint_list()?;
                    }
                    "Summary" => {
                        self.tokens.bump();
                        def.summary = Some(self.expect_string()?);
                    }
                    "NativeVerifier" => {
                        self.tokens.bump();
                        def.native_verifier = Some(self.expect_string()?);
                    }
                    "Format" => {
                        self.tokens.bump();
                        def.format = Some(self.expect_string()?);
                    }
                    other => return Err(self.tokens.error(format!("unknown directive `{other}`"))),
                },
                None => return Err(self.tokens.expected("directive", self.tokens.peek())),
            }
        }
        Ok(def)
    }

    fn parse_alias(&mut self) -> Result<AliasDef> {
        let span = self.tokens.offset();
        self.tokens.expect_keyword("Alias")?;
        let name = match self.tokens.bump() {
            Token::Ident(s) | Token::TypeRef(s) | Token::AttrRef(s) => s.to_string(),
            other => return Err(self.tokens.expected("alias name", &other)),
        };
        let mut params = Vec::new();
        if self.tokens.consume_if(&Token::Lt) {
            loop {
                params.push(self.expect_ident()?);
                if !self.tokens.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.tokens.expect(&Token::Gt)?;
        }
        self.tokens.expect(&Token::Equals)?;
        let body = self.parse_constraint_expr()?;
        Ok(AliasDef { name, params, body, span })
    }

    fn parse_enum(&mut self) -> Result<EnumDef> {
        let span = self.tokens.offset();
        self.tokens.expect_keyword("Enum")?;
        let name = self.expect_ident()?;
        self.tokens.expect(&Token::LBrace)?;
        let mut variants = Vec::new();
        if !self.tokens.consume_if(&Token::RBrace) {
            loop {
                variants.push(self.expect_ident()?);
                if !self.tokens.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.tokens.expect(&Token::RBrace)?;
        }
        Ok(EnumDef { name, variants, span })
    }

    fn parse_constraint_def(&mut self) -> Result<ConstraintDef> {
        let span = self.tokens.offset();
        self.tokens.expect_keyword("Constraint")?;
        let name = self.expect_ident()?;
        self.tokens.expect(&Token::Colon)?;
        let base = self.parse_constraint_expr()?;
        let mut summary = None;
        let mut native = None;
        if self.tokens.consume_if(&Token::LBrace) {
            while !self.tokens.consume_if(&Token::RBrace) {
                match self.peek_ident() {
                    Some(kw) => match kw {
                        "Summary" => {
                            self.tokens.bump();
                            summary = Some(self.expect_string()?);
                        }
                        "NativeConstraint" => {
                            self.tokens.bump();
                            native = Some(self.expect_string()?);
                        }
                        other => return Err(self.tokens.error(format!("unknown directive `{other}`"))),
                    },
                    None => return Err(self.tokens.expected("directive", self.tokens.peek())),
                }
            }
        }
        Ok(ConstraintDef { name, base, summary, native, span })
    }

    fn parse_param_def(&mut self) -> Result<ParamDef> {
        let span = self.tokens.offset();
        self.tokens.expect_keyword("TypeOrAttrParam")?;
        let name = self.expect_ident()?;
        self.tokens.expect(&Token::LBrace)?;
        let mut summary = None;
        let mut native_kind = None;
        while !self.tokens.consume_if(&Token::RBrace) {
            match self.peek_ident() {
                Some(kw) => match kw {
                    "Summary" => {
                        self.tokens.bump();
                        summary = Some(self.expect_string()?);
                    }
                    "NativeType" => {
                        self.tokens.bump();
                        native_kind = Some(self.expect_string()?);
                    }
                    other => return Err(self.tokens.error(format!("unknown directive `{other}`"))),
                },
                None => return Err(self.tokens.expected("directive", self.tokens.peek())),
            }
        }
        let native_kind = native_kind
            .ok_or_else(|| Diagnostic::at(span, "TypeOrAttrParam requires a NativeType name"))?;
        Ok(ParamDef { name, summary, native_kind, span })
    }

    fn parse_op_def(&mut self) -> Result<OpDef> {
        let span = self.tokens.offset();
        self.tokens.expect_keyword("Operation")?;
        let name = self.expect_ident()?;
        self.tokens.expect(&Token::LBrace)?;
        let mut def = OpDef { name, span, ..Default::default() };
        while !self.tokens.consume_if(&Token::RBrace) {
            match self.peek_ident() {
                Some(kw) => match kw {
                    "ConstraintVar" | "ConstraintVars" => {
                        self.tokens.bump();
                        def.constraint_vars.extend(self.parse_named_constraint_list()?);
                    }
                    "Operands" => {
                        self.tokens.bump();
                        def.operands = self.parse_arg_def_list()?;
                    }
                    "Results" => {
                        self.tokens.bump();
                        def.results = self.parse_arg_def_list()?;
                    }
                    "Attributes" => {
                        self.tokens.bump();
                        def.attributes = self.parse_named_constraint_list()?;
                    }
                    "Region" => {
                        self.tokens.bump();
                        def.regions.push(self.parse_region_def()?);
                    }
                    "Successors" => {
                        self.tokens.bump();
                        self.tokens.expect(&Token::LParen)?;
                        let mut successors = Vec::new();
                        if !self.tokens.consume_if(&Token::RParen) {
                            loop {
                                successors.push(self.expect_ident()?);
                                if !self.tokens.consume_if(&Token::Comma) {
                                    break;
                                }
                            }
                            self.tokens.expect(&Token::RParen)?;
                        }
                        def.successors = Some(successors);
                    }
                    "Format" => {
                        self.tokens.bump();
                        def.format = Some(self.expect_string()?);
                    }
                    "Summary" => {
                        self.tokens.bump();
                        def.summary = Some(self.expect_string()?);
                    }
                    "NativeVerifier" => {
                        self.tokens.bump();
                        def.native_verifier = Some(self.expect_string()?);
                    }
                    other => return Err(self.tokens.error(format!("unknown directive `{other}`"))),
                },
                None => return Err(self.tokens.expected("directive", self.tokens.peek())),
            }
        }
        Ok(def)
    }

    fn parse_region_def(&mut self) -> Result<RegionDef> {
        let span = self.tokens.offset();
        let name = self.expect_ident()?;
        let mut def = RegionDef { name, arguments: None, terminator: None, span };
        if self.tokens.consume_if(&Token::LBrace) {
            while !self.tokens.consume_if(&Token::RBrace) {
                match self.peek_ident() {
                    Some(kw) => match kw {
                        "Arguments" => {
                            self.tokens.bump();
                            def.arguments = Some(self.parse_arg_def_list()?);
                        }
                        "Terminator" => {
                            self.tokens.bump();
                            def.terminator = Some(self.expect_ident()?);
                        }
                        other => return Err(self.tokens.error(format!("unknown directive `{other}`"))),
                    },
                    None => return Err(self.tokens.expected("directive", self.tokens.peek())),
                }
            }
        }
        Ok(def)
    }

    // ----- shared pieces --------------------------------------------------------

    /// `(name: constraint, ...)`; names may carry a `!`/`#` sigil (the paper
    /// writes `ConstraintVar (!T: ...)`).
    fn parse_named_constraint_list(&mut self) -> Result<Vec<NamedConstraint>> {
        self.tokens.expect(&Token::LParen)?;
        let mut out = Vec::new();
        if !self.tokens.consume_if(&Token::RParen) {
            loop {
                let span = self.tokens.offset();
                let name = match self.tokens.bump() {
                    Token::Ident(s) | Token::TypeRef(s) | Token::AttrRef(s) => s.to_string(),
                    other => return Err(self.tokens.expected("name", &other)),
                };
                self.tokens.expect(&Token::Colon)?;
                let constraint = self.parse_constraint_expr()?;
                out.push(NamedConstraint { name, constraint, span });
                if !self.tokens.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.tokens.expect(&Token::RParen)?;
        }
        Ok(out)
    }

    /// `(name: constraint, ...)` where constraints may be wrapped in
    /// `Variadic<...>` / `Optional<...>`.
    fn parse_arg_def_list(&mut self) -> Result<Vec<ArgDef>> {
        self.tokens.expect(&Token::LParen)?;
        let mut out = Vec::new();
        if !self.tokens.consume_if(&Token::RParen) {
            loop {
                let span = self.tokens.offset();
                let name = match self.tokens.bump() {
                    Token::Ident(s) | Token::TypeRef(s) | Token::AttrRef(s) => s.to_string(),
                    other => return Err(self.tokens.expected("name", &other)),
                };
                self.tokens.expect(&Token::Colon)?;
                let (constraint, variadicity) = self.parse_arg_constraint()?;
                out.push(ArgDef { name, constraint, variadicity, span });
                if !self.tokens.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.tokens.expect(&Token::RParen)?;
        }
        Ok(out)
    }

    fn parse_arg_constraint(&mut self) -> Result<(ConstraintExpr, Variadicity)> {
        for (kw, variadicity) in
            [("Variadic", Variadicity::Variadic), ("Optional", Variadicity::Optional)]
        {
            if self.tokens.consume_keyword(kw) {
                self.tokens.expect(&Token::Lt)?;
                let inner = self.parse_constraint_expr()?;
                self.tokens.expect(&Token::Gt)?;
                return Ok((inner, variadicity));
            }
        }
        Ok((self.parse_constraint_expr()?, Variadicity::Single))
    }

    // ----- constraint expressions -------------------------------------------------

    fn parse_constraint_expr(&mut self) -> Result<ConstraintExpr> {
        let span = self.tokens.offset();
        match self.tokens.peek() {
            Token::Integer { value, .. } => {
                let value = *value;
                self.tokens.bump();
                self.tokens.expect(&Token::Colon)?;
                let kw = self.expect_ident()?;
                let kind = IntKind::from_keyword(&kw).ok_or_else(|| {
                    Diagnostic::at(span, format!("`{kw}` is not an integer parameter kind"))
                })?;
                if !kind.fits(value) {
                    return Err(Diagnostic::at(
                        span,
                        format!("literal {value} does not fit in {}", kind.keyword()),
                    ));
                }
                Ok(ConstraintExpr::IntLiteral { value, kind })
            }
            Token::Str(_) => {
                let Token::Str(s) = self.tokens.bump() else { unreachable!() };
                Ok(ConstraintExpr::StringLiteral(s.into_owned()))
            }
            Token::LBracket => {
                self.tokens.bump();
                let mut items = Vec::new();
                if !self.tokens.consume_if(&Token::RBracket) {
                    loop {
                        items.push(self.parse_constraint_expr()?);
                        if !self.tokens.consume_if(&Token::Comma) {
                            break;
                        }
                    }
                    self.tokens.expect(&Token::RBracket)?;
                }
                Ok(ConstraintExpr::ArrayExact(items))
            }
            Token::Ident(name) => {
                let name = *name;
                self.tokens.bump();
                self.finish_ref(Sigil::None, name, span)
            }
            Token::TypeRef(name) => {
                let name = *name;
                self.tokens.bump();
                self.finish_ref(Sigil::Type, name, span)
            }
            Token::AttrRef(name) => {
                let name = *name;
                self.tokens.bump();
                self.finish_ref(Sigil::Attr, name, span)
            }
            other => Err(self.tokens.expected("constraint", other)),
        }
    }

    fn finish_ref(&mut self, sigil: Sigil, name: &str, span: Span) -> Result<ConstraintExpr> {
        // Keyword forms that are not ordinary references.
        match (sigil, name) {
            (Sigil::Type, "AnyType") | (Sigil::None, "AnyType") => {
                return Ok(ConstraintExpr::AnyType)
            }
            (Sigil::Attr, "AnyAttr") | (Sigil::None, "AnyAttr") => {
                return Ok(ConstraintExpr::AnyAttr)
            }
            (Sigil::None, "AnyParam") => return Ok(ConstraintExpr::AnyParam),
            (_, "AnyOf") => return Ok(ConstraintExpr::AnyOf(self.parse_angle_list()?)),
            (_, "And") => return Ok(ConstraintExpr::And(self.parse_angle_list()?)),
            (_, "Not") => {
                let mut items = self.parse_angle_list()?;
                if items.len() != 1 {
                    return Err(Diagnostic::at(span, "Not<> takes exactly one constraint"));
                }
                return Ok(ConstraintExpr::Not(Box::new(items.remove(0))));
            }
            (Sigil::None, "string") => return Ok(ConstraintExpr::StringAny),
            (Sigil::None, "array") => {
                if self.tokens.peek() == &Token::Lt {
                    let mut items = self.parse_angle_list()?;
                    if items.len() != 1 {
                        return Err(Diagnostic::at(span, "array<> takes exactly one constraint"));
                    }
                    return Ok(ConstraintExpr::ArrayOf(Box::new(items.remove(0))));
                }
                return Ok(ConstraintExpr::ArrayAny);
            }
            (Sigil::None, kw) => {
                if let Some(kind) = IntKind::from_keyword(kw) {
                    return Ok(ConstraintExpr::IntKind(kind));
                }
            }
            _ => {}
        }
        let path: Vec<String> = name.split('.').map(str::to_string).collect();
        if path.len() > 2 || path.iter().any(String::is_empty) {
            return Err(Diagnostic::at(span, format!("malformed reference `{name}`")));
        }
        let args =
            if self.tokens.peek() == &Token::Lt { self.parse_angle_list()? } else { Vec::new() };
        Ok(ConstraintExpr::Ref { sigil, path, args, span })
    }

    fn parse_angle_list(&mut self) -> Result<Vec<ConstraintExpr>> {
        self.tokens.expect(&Token::Lt)?;
        let mut items = Vec::new();
        if !self.tokens.consume_if(&Token::Gt) {
            loop {
                items.push(self.parse_constraint_expr()?);
                if !self.tokens.consume_if(&Token::Comma) {
                    break;
                }
            }
            self.tokens.expect(&Token::Gt)?;
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Listing 3 of the paper: the self-contained cmath dialect.
    const CMATH: &str = r#"
Dialect cmath {
  Alias !FloatType = !AnyOf<!f32, !f64>

  Type complex {
    Parameters (elementType: !FloatType)
    Summary "A complex number"
  }

  Operation mul {
    ConstraintVar (!T: !complex<!FloatType>)
    Operands (lhs: !T, rhs: !T)
    Results (res: !T)
    Format "$lhs, $rhs : $T.elementType"
    Summary "Multiply two complex numbers"
  }

  Operation norm {
    ConstraintVar (!T: !FloatType)
    Operands (c: !complex<!T>)
    Results (res: !T)
    Format "$c : $T"
    Summary "Compute the norm of a complex number"
  }
}
"#;

    #[test]
    fn parse_listing3_cmath() {
        let file = parse_irdl(CMATH).unwrap();
        assert_eq!(file.dialects.len(), 1);
        let d = &file.dialects[0];
        assert_eq!(d.name, "cmath");
        assert_eq!(d.items.len(), 4);
        assert!(matches!(&d.items[0], Item::Alias(a) if a.name == "FloatType"));
        match &d.items[1] {
            Item::Type(t) => {
                assert_eq!(t.name, "complex");
                assert_eq!(t.parameters.len(), 1);
                assert_eq!(t.parameters[0].name, "elementType");
                assert_eq!(t.summary.as_deref(), Some("A complex number"));
            }
            other => panic!("expected type, got {other:?}"),
        }
        match &d.items[2] {
            Item::Operation(op) => {
                assert_eq!(op.name, "mul");
                assert_eq!(op.constraint_vars.len(), 1);
                assert_eq!(op.constraint_vars[0].name, "T");
                assert_eq!(op.operands.len(), 2);
                assert_eq!(op.results.len(), 1);
                assert_eq!(op.format.as_deref(), Some("$lhs, $rhs : $T.elementType"));
            }
            other => panic!("expected operation, got {other:?}"),
        }
    }

    #[test]
    fn parse_listing4_aliases() {
        let src = r#"
Dialect c {
  Alias !Complexf32 = !complex<!f32>
  Alias !ComplexOr<T> = AnyOf<!complex<!AnyType>, T>
}
"#;
        let file = parse_irdl(src).unwrap();
        match &file.dialects[0].items[1] {
            Item::Alias(a) => {
                assert_eq!(a.name, "ComplexOr");
                assert_eq!(a.params, vec!["T"]);
                assert!(matches!(&a.body, ConstraintExpr::AnyOf(items) if items.len() == 2));
            }
            other => panic!("expected alias, got {other:?}"),
        }
    }

    #[test]
    fn parse_listing5_attributes() {
        let src = r#"
Dialect c {
  Operation create_constant {
    Results (res: !complex<!f32>)
    Attributes (re: #f32_attr, im: #f32_attr)
    Summary "Create a constant complex number"
  }
}
"#;
        let file = parse_irdl(src).unwrap();
        match &file.dialects[0].items[0] {
            Item::Operation(op) => {
                assert_eq!(op.attributes.len(), 2);
                assert_eq!(op.attributes[0].name, "re");
            }
            other => panic!("expected operation, got {other:?}"),
        }
    }

    #[test]
    fn parse_listing6_optional() {
        let src = r#"
Dialect c {
  Operation log {
    Operands (c: !complex<!f32>, base: Optional<!f32>)
    Results (res: !complex<!f32>)
  }
}
"#;
        let file = parse_irdl(src).unwrap();
        match &file.dialects[0].items[0] {
            Item::Operation(op) => {
                assert_eq!(op.operands[0].variadicity, Variadicity::Single);
                assert_eq!(op.operands[1].variadicity, Variadicity::Optional);
            }
            other => panic!("expected operation, got {other:?}"),
        }
    }

    #[test]
    fn parse_listing7_regions() {
        let src = r#"
Dialect c {
  Operation range_loop_terminator {}
  Operation range_loop {
    Operands (lower_bound: !i32, upper_bound: !i32, step: !i32)
    Region body {
      Arguments (induction_variable: !i32)
      Terminator range_loop_terminator
    }
  }
}
"#;
        let file = parse_irdl(src).unwrap();
        match &file.dialects[0].items[1] {
            Item::Operation(op) => {
                assert_eq!(op.regions.len(), 1);
                let region = &op.regions[0];
                assert_eq!(region.name, "body");
                assert_eq!(region.arguments.as_ref().map(Vec::len), Some(1));
                assert_eq!(region.terminator.as_deref(), Some("range_loop_terminator"));
            }
            other => panic!("expected operation, got {other:?}"),
        }
    }

    #[test]
    fn parse_listing8_successors() {
        let src = r#"
Dialect c {
  Operation conditional_branch {
    Operands (condition: !i1)
    Successors (next_bb_true, next_bb_false)
  }
}
"#;
        let file = parse_irdl(src).unwrap();
        match &file.dialects[0].items[0] {
            Item::Operation(op) => {
                assert_eq!(
                    op.successors,
                    Some(vec!["next_bb_true".to_string(), "next_bb_false".to_string()])
                );
            }
            other => panic!("expected operation, got {other:?}"),
        }
    }

    #[test]
    fn parse_listing9_enums() {
        let src = r#"
Dialect c {
  Enum signedness { Signless, Signed, Unsigned }
  Type integer {
    Parameters (bitwidth: uint32_t, signed: signedness)
  }
  Alias signed_integer = !integer<uint32_t, signedness.Signed>
}
"#;
        let file = parse_irdl(src).unwrap();
        match &file.dialects[0].items[0] {
            Item::Enum(e) => assert_eq!(e.variants, vec!["Signless", "Signed", "Unsigned"]),
            other => panic!("expected enum, got {other:?}"),
        }
        match &file.dialects[0].items[1] {
            Item::Type(t) => {
                assert_eq!(
                    t.parameters[0].constraint,
                    ConstraintExpr::IntKind(IntKind { width: 32, unsigned: true })
                );
                assert!(matches!(
                    &t.parameters[1].constraint,
                    ConstraintExpr::Ref { path, .. } if path == &vec!["signedness".to_string()]
                ));
            }
            other => panic!("expected type, got {other:?}"),
        }
        match &file.dialects[0].items[2] {
            Item::Alias(a) => match &a.body {
                ConstraintExpr::Ref { path, args, .. } => {
                    assert_eq!(path, &vec!["integer".to_string()]);
                    assert!(matches!(
                        &args[1],
                        ConstraintExpr::Ref { path, .. }
                            if path == &vec!["signedness".to_string(), "Signed".to_string()]
                    ));
                }
                other => panic!("expected ref, got {other:?}"),
            },
            other => panic!("expected alias, got {other:?}"),
        }
    }

    #[test]
    fn parse_listing10_native_constraints() {
        let src = r#"
Dialect c {
  Constraint BoundedInteger : uint32_t {
    Summary "integer value between 0 and 32"
    NativeConstraint "bounded_u32"
  }
  Operation append_vector {
    ConstraintVars (T: !AnyType)
    Operands (lhs: !vector<T, BoundedInteger>, rhs: !vector<T, BoundedInteger>)
    Results (res: !vector<T, BoundedInteger>)
    NativeVerifier "append_vector_sizes"
  }
}
"#;
        let file = parse_irdl(src).unwrap();
        match &file.dialects[0].items[0] {
            Item::Constraint(c) => {
                assert_eq!(c.name, "BoundedInteger");
                assert_eq!(c.native.as_deref(), Some("bounded_u32"));
                assert_eq!(c.base, ConstraintExpr::IntKind(IntKind { width: 32, unsigned: true }));
            }
            other => panic!("expected constraint, got {other:?}"),
        }
        match &file.dialects[0].items[1] {
            Item::Operation(op) => {
                assert_eq!(op.native_verifier.as_deref(), Some("append_vector_sizes"));
            }
            other => panic!("expected operation, got {other:?}"),
        }
    }

    #[test]
    fn parse_listing11_native_params() {
        let src = r#"
Dialect c {
  TypeOrAttrParam StringParam {
    Summary "A string parameter"
    NativeType "string_param"
  }
  Attribute StringAttr {
    Parameters (data: StringParam)
  }
}
"#;
        let file = parse_irdl(src).unwrap();
        match &file.dialects[0].items[0] {
            Item::TypeOrAttrParam(p) => {
                assert_eq!(p.name, "StringParam");
                assert_eq!(p.native_kind, "string_param");
            }
            other => panic!("expected param def, got {other:?}"),
        }
        assert!(matches!(&file.dialects[0].items[1], Item::Attribute(a) if a.name == "StringAttr"));
    }

    #[test]
    fn parse_parameter_constraint_forms() {
        let src = r#"
Dialect c {
  Type t {
    Parameters (
      a: int32_t,
      b: 3 : int32_t,
      c: string,
      d: "foo",
      e: array,
      f: array<!AnyType>,
      g: [!AnyType, #AnyAttr],
      h: And<int32_t, Not<0 : int32_t>>,
      i: AnyParam
    )
  }
}
"#;
        let file = parse_irdl(src).unwrap();
        let Item::Type(t) = &file.dialects[0].items[0] else { panic!() };
        assert_eq!(t.parameters.len(), 9);
        assert_eq!(
            t.parameters[1].constraint,
            ConstraintExpr::IntLiteral { value: 3, kind: IntKind { width: 32, unsigned: false } }
        );
        assert_eq!(t.parameters[3].constraint, ConstraintExpr::StringLiteral("foo".into()));
        assert_eq!(t.parameters[4].constraint, ConstraintExpr::ArrayAny);
        assert!(matches!(&t.parameters[5].constraint, ConstraintExpr::ArrayOf(_)));
        assert!(matches!(&t.parameters[6].constraint, ConstraintExpr::ArrayExact(v) if v.len() == 2));
        assert!(matches!(&t.parameters[7].constraint, ConstraintExpr::And(v) if v.len() == 2));
        assert_eq!(t.parameters[8].constraint, ConstraintExpr::AnyParam);
    }

    #[test]
    fn literal_out_of_range_is_an_error() {
        let src = "Dialect c { Type t { Parameters (a: 300 : int8_t) } }";
        let err = parse_irdl(src).unwrap_err();
        assert!(err.message().contains("does not fit"), "{err}");
    }

    #[test]
    fn unknown_directive_is_an_error() {
        let src = "Dialect c { Operation o { Typo \"x\" } }";
        let err = parse_irdl(src).unwrap_err();
        assert!(err.message().contains("unknown directive"), "{err}");
    }

    /// The first lex error anywhere in the source is the diagnostic,
    /// whatever the parser made of the tokens before it.
    #[test]
    fn lex_errors_take_precedence_over_parse_errors() {
        let cases = [
            // A parse error on line 1, a lex error on line 2.
            ("Dialect a { Typo }\nDialect b { Summary \"\\q\" }", 41, "unknown escape `\\q`"),
            // A lex error right after a complete, valid dialect.
            ("Dialect a { Summary \"s\" }\n`", 26, "unexpected character ```"),
            // A lex error where the next constraint should start.
            ("Dialect a { Type t { Parameters (p: `) } }", 36, "unexpected character ```"),
        ];
        for (source, offset, message) in cases {
            let err = parse_irdl(source).unwrap_err();
            assert_eq!((err.offset(), err.message()), (Some(offset), message), "{source}");
        }
        let err = parse_constraint_expr_str("!f32 `").unwrap_err();
        assert_eq!((err.offset(), err.message()), (Some(5), "unexpected character ```"));
    }

    #[test]
    fn dialect_summary_parses() {
        let src = "Dialect c { Summary \"complex math\" }";
        let file = parse_irdl(src).unwrap();
        assert_eq!(file.dialects[0].summary.as_deref(), Some("complex math"));
    }
}
