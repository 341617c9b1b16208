//! Text syntax for Datalog¬ programs.
//!
//! ```text
//! rel tc(U, U).
//! tc(x, y) :- G(x, y).
//! tc(x, y) :- tc(x, z), G(z, y).
//! odd(x)   :- Node(x), !even(x), x != 'root', x in S.
//! ```
//!
//! Declarations `rel name(T1, …, Tn).` give IDB signatures (types in the
//! same syntax as CALC: `U`, `{T}`, `[T1,…,Tn]`); every other clause is a
//! rule. Constants are quoted atoms `'a'` (interned into the caller's
//! [`Universe`]) or set/tuple literals `{…}` / `[…]` over constants.
//! Comments run from `%` to end of line.

use crate::program::{DTerm, Literal, Program};
use no_object::{caret_excerpt, Span, Type, Universe, Value};
use std::fmt;

/// A parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl ParseError {
    /// The (point) span of the failure.
    pub fn span(&self) -> Span {
        Span::point(self.at)
    }

    /// Render the error with a caret excerpt of the offending line.
    /// `src` must be the source text the error came from.
    pub fn render(&self, src: &str) -> String {
        format!("{self}\n{}", caret_excerpt(src, self.span()))
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "datalog parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct P<'s, 'u> {
    src: &'s [u8],
    pos: usize,
    universe: &'u mut Universe,
    rule_spans: Vec<Span>,
}

impl<'s, 'u> P<'s, 'u> {
    fn err(&self, m: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: m.into(),
        }
    }

    fn skip_ws(&mut self) {
        loop {
            while self
                .src
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
            if self.src.get(self.pos) == Some(&b'%') {
                while self.src.get(self.pos).is_some_and(|&b| b != b'\n') {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn try_eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected identifier"));
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.err("non-UTF8 identifier"))?
            .to_string())
    }

    fn keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let end = self.pos + kw.len();
        if self.src.len() >= end
            && &self.src[self.pos..end] == kw.as_bytes()
            && !self
                .src
                .get(end)
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            self.pos = end;
            true
        } else {
            false
        }
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        match self.peek() {
            Some(b'U') => {
                // bare U (not a longer identifier)
                let id = self.ident()?;
                if id == "U" {
                    Ok(Type::Atom)
                } else {
                    Err(self.err(format!("expected type, found {id}")))
                }
            }
            Some(b'{') => {
                self.eat(b'{')?;
                let inner = self.ty()?;
                self.eat(b'}')?;
                Ok(Type::set(inner))
            }
            Some(b'[') => {
                self.eat(b'[')?;
                let mut comps = vec![self.ty()?];
                while self.try_eat(b',') {
                    comps.push(self.ty()?);
                }
                self.eat(b']')?;
                Ok(Type::tuple(comps))
            }
            _ => Err(self.err("expected type")),
        }
    }

    fn constant(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'\'') => {
                self.pos += 1;
                let start = self.pos;
                while self.src.get(self.pos).is_some_and(|&b| b != b'\'') {
                    self.pos += 1;
                }
                if self.src.get(self.pos) != Some(&b'\'') {
                    return Err(self.err("unterminated atom literal"));
                }
                let name = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| self.err("non-UTF8 atom"))?
                    .to_string();
                self.pos += 1;
                Ok(Value::Atom(self.universe.intern(&name)))
            }
            Some(b'{') => {
                self.eat(b'{')?;
                let mut elems = Vec::new();
                if self.peek() != Some(b'}') {
                    elems.push(self.constant()?);
                    while self.try_eat(b',') {
                        elems.push(self.constant()?);
                    }
                }
                self.eat(b'}')?;
                Ok(Value::set(elems))
            }
            Some(b'[') => {
                self.eat(b'[')?;
                let mut elems = vec![self.constant()?];
                while self.try_eat(b',') {
                    elems.push(self.constant()?);
                }
                self.eat(b']')?;
                Ok(Value::tuple(elems))
            }
            _ => Err(self.err("expected constant")),
        }
    }

    fn term(&mut self) -> Result<DTerm, ParseError> {
        match self.peek() {
            Some(b'\'') | Some(b'{') | Some(b'[') => Ok(DTerm::Const(self.constant()?)),
            _ => Ok(DTerm::Var(self.ident()?)),
        }
    }

    fn terms(&mut self) -> Result<Vec<DTerm>, ParseError> {
        self.eat(b'(')?;
        let mut out = Vec::new();
        if self.peek() != Some(b')') {
            out.push(self.term()?);
            while self.try_eat(b',') {
                out.push(self.term()?);
            }
        }
        self.eat(b')')?;
        Ok(out)
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        if self.try_eat(b'!') {
            let name = self.ident()?;
            let args = self.terms()?;
            return Ok(Literal::Neg(name, args));
        }
        // either rel(args) or a comparison starting with a term
        let save = self.pos;
        if let Ok(name) = self.ident() {
            if self.peek() == Some(b'(') {
                let args = self.terms()?;
                return Ok(Literal::Pos(name, args));
            }
            self.pos = save;
        } else {
            self.pos = save;
        }
        let lhs = self.term()?;
        self.skip_ws();
        if self.try_eat(b'=') {
            return Ok(Literal::Eq(lhs, self.term()?));
        }
        if self.src.get(self.pos) == Some(&b'!') && self.src.get(self.pos + 1) == Some(&b'=') {
            self.pos += 2;
            return Ok(Literal::Neq(lhs, self.term()?));
        }
        if self.keyword("notin") {
            return Ok(Literal::NotIn(lhs, self.term()?));
        }
        if self.keyword("in") {
            return Ok(Literal::In(lhs, self.term()?));
        }
        Err(self.err("expected comparison or relation literal"))
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::new();
        loop {
            if self.peek().is_none() {
                return Ok(program);
            }
            if self.keyword("rel") {
                let name = self.ident()?;
                self.eat(b'(')?;
                let mut types = vec![self.ty()?];
                while self.try_eat(b',') {
                    types.push(self.ty()?);
                }
                self.eat(b')')?;
                self.eat(b'.')?;
                program.declare(name, types);
                continue;
            }
            // rule: head(args) :- body .   or a fact: head(args).
            self.skip_ws();
            let head_at = self.pos;
            let head = self.ident()?;
            self.rule_spans.push(Span::new(head_at, self.pos));
            let head_args = self.terms()?;
            let mut body = Vec::new();
            self.skip_ws();
            if self.src.get(self.pos) == Some(&b':') && self.src.get(self.pos + 1) == Some(&b'-') {
                self.pos += 2;
                body.push(self.literal()?);
                while self.try_eat(b',') {
                    body.push(self.literal()?);
                }
            }
            self.eat(b'.')?;
            program.rule(head, head_args, body);
        }
    }
}

/// Parse a Datalog program, interning atom constants into `universe`.
pub fn parse_program(src: &str, universe: &mut Universe) -> Result<Program, ParseError> {
    parse_program_spanned(src, universe).map(|(p, _)| p)
}

/// Like [`parse_program`], additionally returning the span of each rule's
/// head identifier, in rule order (one entry per entry of
/// `Program::rules`). Declarations carry no span.
pub fn parse_program_spanned(
    src: &str,
    universe: &mut Universe,
) -> Result<(Program, Vec<Span>), ParseError> {
    let mut p = P {
        src: src.as_bytes(),
        pos: 0,
        universe,
        rule_spans: Vec::new(),
    };
    let program = p.program()?;
    Ok((program, p.rule_spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::tests::run;
    use crate::eval::Strategy;
    use no_object::{Instance, RelationSchema, Schema};

    #[test]
    fn tc_program_parses_and_runs() {
        let mut u = Universe::new();
        let p = parse_program(
            "% transitive closure\n\
             rel tc(U, U).\n\
             tc(x, y) :- G(x, y).\n\
             tc(x, y) :- tc(x, z), G(z, y).\n",
            &mut u,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        let schema =
            Schema::from_relations([RelationSchema::new("G", vec![Type::Atom, Type::Atom])]);
        let mut i = Instance::empty(schema);
        let (a, b, c) = (u.intern("a"), u.intern("b"), u.intern("c"));
        i.insert("G", vec![Value::Atom(a), Value::Atom(b)]);
        i.insert("G", vec![Value::Atom(b), Value::Atom(c)]);
        let (idb, _) = run(&p, &i, Strategy::SemiNaive).unwrap();
        assert_eq!(idb["tc"].len(), 3);
    }

    #[test]
    fn declarations_with_nested_types() {
        let mut u = Universe::new();
        let p = parse_program("rel r([U,{U}], {[U,U]}).", &mut u).unwrap();
        let sig = &p.idb["r"];
        assert_eq!(sig[0].to_string(), "[U,{U}]");
        assert_eq!(sig[1].to_string(), "{[U,U]}");
    }

    #[test]
    fn all_literal_forms() {
        let mut u = Universe::new();
        let p = parse_program(
            "rel r(U).\n\
             r(x) :- P(x, S), x in S, x notin T, !Q(x), x != 'bob', y = x, x = {'a','b'}.",
            &mut u,
        )
        .unwrap();
        let body = &p.rules[0].body;
        assert_eq!(body.len(), 7);
        assert!(matches!(body[0], Literal::Pos(..)));
        assert!(matches!(body[1], Literal::In(..)));
        assert!(matches!(body[2], Literal::NotIn(..)));
        assert!(matches!(body[3], Literal::Neg(..)));
        assert!(matches!(body[4], Literal::Neq(..)));
        assert!(matches!(body[5], Literal::Eq(..)));
        assert!(matches!(body[6], Literal::Eq(..)));
        assert_eq!(u.len(), 3); // bob, a, b
    }

    #[test]
    fn facts_parse_as_bodyless_rules() {
        let mut u = Universe::new();
        let p = parse_program("rel f(U).\nf('a').\nf('b').", &mut u).unwrap();
        assert_eq!(p.rules.len(), 2);
        assert!(p.rules.iter().all(|r| r.body.is_empty()));
    }

    #[test]
    fn display_reparses() {
        let mut u = Universe::new();
        let p = parse_program(
            "rel tc(U, U).\n\
             tc(x, y) :- G(x, y).\n\
             tc(x, y) :- tc(x, z), G(z, y), x != y.",
            &mut u,
        )
        .unwrap();
        let printed = p.to_string();
        let back = parse_program(&printed, &mut u).unwrap();
        assert_eq!(back.rules, p.rules);
        assert_eq!(back.idb, p.idb);
    }

    #[test]
    fn errors_are_located() {
        let mut u = Universe::new();
        let e = parse_program("rel r(U)\nr(x) :- G(x).", &mut u).unwrap_err();
        assert!(e.at >= 8, "at = {}", e.at); // missing '.' after declaration
        assert!(parse_program("r(x) :- .", &mut u).is_err());
        assert!(parse_program("r(x :- G(x).", &mut u).is_err());
        assert!(parse_program("rel r(V).", &mut u).is_err());
    }

    #[test]
    fn errors_render_with_a_caret_excerpt() {
        let mut u = Universe::new();
        let src = "rel r(U).\nr(x :- G(x).";
        let e = parse_program(src, &mut u).unwrap_err();
        let rendered = e.render(src);
        assert!(rendered.contains("datalog parse error at byte"));
        assert!(rendered.contains("line 2"), "rendered:\n{rendered}");
        assert!(rendered.contains("r(x :- G(x)."), "rendered:\n{rendered}");
        assert!(rendered.contains('^'), "rendered:\n{rendered}");
    }

    #[test]
    fn comments_and_whitespace() {
        let mut u = Universe::new();
        let p = parse_program(
            "% leading comment\n  rel r(U). % trailing\n\n r(x) :- G(x, x). % done",
            &mut u,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 1);
    }
}
