//! A concrete syntax for epistemic formulas.
//!
//! Lets tools and tests write the paper's predicates as text:
//!
//! ```text
//! K{p2} (K{p1} !token-at-p0 & K{p3} !token-at-p4)   # the §4.1 claim
//! Sure{p1} bit                                       # P sure b
//! C attack -> E attack                               # CK implies E
//! ```
//!
//! Grammar (loosest binding first):
//!
//! ```text
//! formula   := iff
//! iff       := implies ( "<->" implies )*
//! implies   := or ( "->" or )*           (right associative)
//! or        := and ( "|" and )*
//! and       := unary ( "&" unary )*
//! unary     := "!" unary
//!            | "K" procset unary | "Sure" procset unary
//!            | "E" unary | "C" unary
//!            | atom | "true" | "false" | "(" formula ")"
//! procset   := "{" [ "p" index ( "," "p" index )* ] "}"
//! atom      := [A-Za-z0-9_-]+      (resolved against the Interpretation)
//! ```
//!
//! The Unicode operators that [`Formula::display_with`] emits (`¬ ∧ ∨ ⇒
//! ⇔`) are accepted as synonyms, so parse ∘ display is the identity —
//! property-tested below.
//!
//! Comments (`#` to end of line) and whitespace are ignored.
//!
//! Nesting is bounded by [`MAX_FORMULA_DEPTH`], so no input text can
//! exhaust the stack of the parser or of anything that later walks the
//! formula.

use crate::formula::{Formula, Interpretation};
use hpl_model::ProcessSet;
use std::error::Error;
use std::fmt;

/// The deepest nesting [`parse`] accepts: at most this many operators
/// on any root-to-leaf path of the formula, and at most this many
/// unary operators, parentheses and `->` right-hand sides open at once
/// in its text. The planner, the soundness checker and the evaluator
/// recurse once per level, so the bound keeps them far inside a 2 MiB
/// thread stack.
pub const MAX_FORMULA_DEPTH: usize = 256;

/// A parse failure, with the byte offset where it occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl Error for ParseError {}

/// Parses a formula, resolving atom names through `interp`.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax problem,
/// unknown atom, or nesting past [`MAX_FORMULA_DEPTH`].
pub fn parse(input: &str, interp: &Interpretation) -> Result<Formula, ParseError> {
    let mut parser = Parser {
        input: input.as_bytes(),
        pos: 0,
        interp,
        open: 0,
    };
    parser.skip_ws();
    let (f, _) = parser.iff()?;
    parser.skip_ws();
    if parser.pos != parser.input.len() {
        return Err(parser.err("trailing input"));
    }
    Ok(f)
}

/// A parsed subformula and its depth: the operators on its longest
/// root-to-leaf path.
type Parsed = (Formula, usize);

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    interp: &'a Interpretation,
    /// Unary operands, parenthesized groups and `->` right-hand sides
    /// being parsed — the parser's own recursion depth.
    open: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.to_owned(),
        }
    }

    fn too_deep(&self) -> ParseError {
        self.err(&format!(
            "formula nests deeper than {MAX_FORMULA_DEPTH} levels"
        ))
    }

    /// Runs `rule` one recursion level down, refusing to open more than
    /// [`MAX_FORMULA_DEPTH`] levels.
    fn nested(
        &mut self,
        rule: fn(&mut Self) -> Result<Parsed, ParseError>,
    ) -> Result<Parsed, ParseError> {
        if self.open == MAX_FORMULA_DEPTH {
            return Err(self.too_deep());
        }
        self.open += 1;
        let parsed = rule(self);
        self.open -= 1;
        parsed
    }

    /// The depth of an operator over operands at most `depth` deep.
    fn above(&self, depth: usize) -> Result<usize, ParseError> {
        if depth < MAX_FORMULA_DEPTH {
            Ok(depth + 1)
        } else {
            Err(self.too_deep())
        }
    }

    /// The operand of a unary operator, with the operator's depth.
    fn operand(&mut self) -> Result<Parsed, ParseError> {
        let (f, depth) = self.nested(Self::unary)?;
        Ok((f, self.above(depth)?))
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos < self.input.len() && self.input[self.pos] == b'#' {
                while self.pos < self.input.len() && self.input[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    /// The next operator, atom or process name, borrowed from the input.
    fn peek_word(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let start = self.pos;
        let mut end = start;
        while end < self.input.len()
            && (self.input[end].is_ascii_alphanumeric()
                || self.input[end] == b'_'
                || self.input[end] == b'-')
        {
            end += 1;
        }
        if end == start {
            None
        } else {
            std::str::from_utf8(&self.input[start..end]).ok()
        }
    }

    fn take_word(&mut self) -> Option<&'a str> {
        let w = self.peek_word()?;
        self.pos += w.len();
        Some(w)
    }

    fn iff(&mut self) -> Result<Parsed, ParseError> {
        let (mut lhs, mut depth) = self.implies()?;
        while self.eat("<->") || self.eat("\u{21d4}") {
            let (rhs, d) = self.implies()?;
            depth = self.above(depth.max(d))?;
            lhs = lhs.iff(rhs);
        }
        Ok((lhs, depth))
    }

    fn implies(&mut self) -> Result<Parsed, ParseError> {
        let (lhs, depth) = self.or()?;
        // right associative: a -> b -> c = a -> (b -> c)
        if self.eat("->") || self.eat("\u{21d2}") {
            let (rhs, d) = self.nested(Self::implies)?;
            return Ok((lhs.implies(rhs), self.above(depth.max(d))?));
        }
        Ok((lhs, depth))
    }

    fn or(&mut self) -> Result<Parsed, ParseError> {
        let (mut lhs, mut depth) = self.and()?;
        loop {
            self.skip_ws();
            // careful: "|" but not part of "||" nonsense — single | only
            if self.eat("|") || self.eat("\u{2228}") {
                let (rhs, d) = self.and()?;
                depth = self.above(depth.max(d))?;
                lhs = lhs.or(rhs);
            } else {
                return Ok((lhs, depth));
            }
        }
    }

    fn and(&mut self) -> Result<Parsed, ParseError> {
        let (mut lhs, mut depth) = self.unary()?;
        while self.eat("&") || self.eat("\u{2227}") {
            let (rhs, d) = self.unary()?;
            depth = self.above(depth.max(d))?;
            lhs = lhs.and(rhs);
        }
        Ok((lhs, depth))
    }

    fn unary(&mut self) -> Result<Parsed, ParseError> {
        self.skip_ws();
        if self.eat("!") || self.eat("\u{00ac}") {
            let (f, depth) = self.operand()?;
            return Ok((f.not(), depth));
        }
        if self.eat("(") {
            let parsed = self.nested(Self::iff)?;
            if !self.eat(")") {
                return Err(self.err("expected ')'"));
            }
            return Ok(parsed);
        }
        let Some(word) = self.peek_word() else {
            return Err(self.err("expected a formula"));
        };
        match word {
            "true" => {
                self.take_word();
                Ok((Formula::True, 0))
            }
            "false" => {
                self.take_word();
                Ok((Formula::False, 0))
            }
            "K" | "Sure" => {
                let op = self.take_word().expect("peeked");
                let set = self.procset()?;
                let (inner, depth) = self.operand()?;
                Ok((
                    if op == "K" {
                        Formula::knows(set, inner)
                    } else {
                        Formula::sure(set, inner)
                    },
                    depth,
                ))
            }
            "E" => {
                self.take_word();
                let (f, depth) = self.operand()?;
                Ok((Formula::everyone(f), depth))
            }
            "C" => {
                self.take_word();
                let (f, depth) = self.operand()?;
                Ok((Formula::common(f), depth))
            }
            _ => {
                let name = self.take_word().expect("peeked");
                for id in self.interp.ids() {
                    if self.interp.name(id) == name {
                        return Ok((Formula::atom(id), 0));
                    }
                }
                self.pos -= name.len();
                Err(self.err(&format!("unknown atom '{name}'")))
            }
        }
    }

    fn procset(&mut self) -> Result<ProcessSet, ParseError> {
        if !self.eat("{") {
            return Err(self.err("expected '{' after K/Sure"));
        }
        let mut set = ProcessSet::new();
        loop {
            self.skip_ws();
            if self.eat("}") {
                return Ok(set);
            }
            let Some(word) = self.take_word() else {
                return Err(self.err("expected a process like p0"));
            };
            let Some(index) = word.strip_prefix('p').and_then(|d| d.parse::<usize>().ok()) else {
                return Err(self.err(&format!("bad process name '{word}'")));
            };
            if index >= ProcessSet::CAPACITY {
                return Err(self.err("process index out of range"));
            }
            set.insert(hpl_model::ProcessId::new(index));
            self.skip_ws();
            let _ = self.eat(",");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interp() -> Interpretation {
        let mut i = Interpretation::new();
        i.register("alpha", |_| true);
        i.register("token-at-p0", |_| false);
        i.register("b_2", |c| c.len() > 1);
        i
    }

    fn roundtrip(text: &str) {
        let i = interp();
        let f = parse(text, &i).unwrap_or_else(|e| panic!("{text}: {e}"));
        // display_with produces an equivalent (fully parenthesized) form
        let shown = f.display_with(&i);
        let again = parse(&shown, &i).unwrap_or_else(|e| panic!("reparse of '{shown}': {e}"));
        assert_eq!(f, again, "roundtrip of '{text}' via '{shown}'");
    }

    #[test]
    fn atoms_and_constants() {
        let i = interp();
        assert_eq!(parse("true", &i).unwrap(), Formula::True);
        assert_eq!(parse("false", &i).unwrap(), Formula::False);
        assert_eq!(parse("alpha", &i).unwrap(), Formula::atom_raw(0));
        assert_eq!(parse("token-at-p0", &i).unwrap(), Formula::atom_raw(1));
        assert_eq!(parse("b_2", &i).unwrap(), Formula::atom_raw(2));
    }

    #[test]
    fn connectives_and_precedence() {
        let i = interp();
        // & binds tighter than |
        let f = parse("alpha | alpha & false", &i).unwrap();
        assert_eq!(
            f,
            Formula::atom_raw(0).or(Formula::atom_raw(0).and(Formula::False))
        );
        // -> is right associative
        let g = parse("alpha -> alpha -> false", &i).unwrap();
        assert_eq!(
            g,
            Formula::atom_raw(0).implies(Formula::atom_raw(0).implies(Formula::False))
        );
        // negation binds tightest
        let h = parse("!alpha & true", &i).unwrap();
        assert_eq!(h, Formula::atom_raw(0).not().and(Formula::True));
    }

    #[test]
    fn knowledge_operators() {
        let i = interp();
        let f = parse("K{p0} alpha", &i).unwrap();
        assert_eq!(
            f,
            Formula::knows(ProcessSet::from_indices([0]), Formula::atom_raw(0))
        );
        let g = parse("K{p0, p2} Sure{p1} alpha", &i).unwrap();
        assert_eq!(
            g,
            Formula::knows(
                ProcessSet::from_indices([0, 2]),
                Formula::sure(ProcessSet::from_indices([1]), Formula::atom_raw(0))
            )
        );
        let h = parse("E C alpha", &i).unwrap();
        assert_eq!(h, Formula::everyone(Formula::common(Formula::atom_raw(0))));
        // K{} — the empty set — is legal (and trivially global)
        let k = parse("K{} alpha", &i).unwrap();
        assert_eq!(k, Formula::knows(ProcessSet::EMPTY, Formula::atom_raw(0)));
    }

    #[test]
    fn the_paper_formula_parses() {
        let mut i = Interpretation::new();
        for n in 0..5 {
            i.register(&format!("token-at-p{n}"), |_| false);
        }
        let f = parse("K{p2} (K{p1} !token-at-p0 & K{p3} !token-at-p4)", &i).unwrap();
        assert_eq!(f.knowledge_depth(), 2);
    }

    #[test]
    fn comments_and_whitespace() {
        let i = interp();
        let f = parse(
            "  # leading comment\n K{p0}  # the knower\n alpha # the known\n",
            &i,
        )
        .unwrap();
        assert_eq!(f.knowledge_depth(), 1);
    }

    #[test]
    fn error_reporting() {
        let i = interp();
        let e = parse("K p0 alpha", &i).unwrap_err();
        assert!(e.message.contains('{'), "{e}");
        let e2 = parse("unknown-atom", &i).unwrap_err();
        assert!(e2.message.contains("unknown atom"), "{e2}");
        assert_eq!(e2.position, 0);
        let e3 = parse("(alpha", &i).unwrap_err();
        assert!(e3.message.contains(')'));
        let e4 = parse("alpha extra", &i).unwrap_err();
        assert!(e4.message.contains("trailing"));
        let e5 = parse("K{q0} alpha", &i).unwrap_err();
        assert!(e5.message.contains("bad process"), "{e5}");
        let e6 = parse("", &i).unwrap_err();
        assert!(e6.message.contains("expected a formula"));
        assert!(!e6.to_string().is_empty());
    }

    #[test]
    fn nesting_is_bounded() {
        let i = interp();
        let chain = |k: usize| format!("{}alpha", "K{p0} ".repeat(k));
        let at_limit = parse(&chain(MAX_FORMULA_DEPTH), &i).expect("a chain at the limit parses");
        assert_eq!(at_limit.knowledge_depth(), MAX_FORMULA_DEPTH);
        let past = parse(&chain(MAX_FORMULA_DEPTH + 1), &i).unwrap_err();
        assert!(past.message.contains("deeper than"), "{past}");
        // each would overflow the stack of a recursive parser or of
        // whatever walks the formula afterwards
        for text in [
            format!("{}alpha", "!".repeat(20_000)),
            "(".repeat(200_000),
            format!("{}alpha", "alpha -> ".repeat(20_000)),
            format!("alpha{}", " & alpha".repeat(20_000)),
            format!("alpha{}", " <-> alpha".repeat(20_000)),
            format!("{}alpha{}", "(".repeat(300), ")".repeat(300)),
        ] {
            let e = parse(&text, &i).unwrap_err();
            assert!(e.message.contains("deeper than"), "{e}");
        }
        // a formula's depth counts every operator, including the links
        // of a left-nested chain
        let links = format!("alpha{}", " | alpha".repeat(MAX_FORMULA_DEPTH));
        assert!(parse(&links, &i).is_ok());
        let deeper = format!("!({links})");
        assert!(parse(&deeper, &i).is_err());
    }

    #[test]
    fn display_roundtrips() {
        for text in [
            "true",
            "!alpha",
            "alpha & token-at-p0",
            "alpha | false",
            "alpha -> token-at-p0",
            "alpha <-> token-at-p0",
            "K{p0} alpha",
            "Sure{p1} !alpha",
            "E alpha",
            "C (alpha & true)",
            "K{p2} (K{p1} !alpha & K{p3} !token-at-p0)",
            "K{p0} K{p1} K{p2} alpha",
        ] {
            roundtrip(text);
        }
    }

    /// Random formula generator for the parse∘display identity.
    fn random_formula(depth: usize, seed: &mut u64) -> Formula {
        let mut next = || {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            *seed
        };
        if depth == 0 {
            return match next() % 4 {
                0 => Formula::True,
                1 => Formula::False,
                2 => Formula::atom_raw((next() % 3) as usize),
                _ => Formula::atom_raw(0).not(),
            };
        }
        let sub = |seed: &mut u64| random_formula(depth - 1, seed);
        match next() % 8 {
            0 => sub(seed).not(),
            1 => sub(seed).and(sub(seed)),
            2 => sub(seed).or(sub(seed)),
            3 => sub(seed).implies(sub(seed)),
            4 => sub(seed).iff(sub(seed)),
            5 => Formula::knows(ProcessSet::from_indices([(next() % 4) as usize]), sub(seed)),
            6 => Formula::sure(
                ProcessSet::from_indices([(next() % 4) as usize, 5]),
                sub(seed),
            ),
            _ => Formula::everyone(Formula::common(sub(seed))),
        }
    }

    #[test]
    fn prop_parse_display_identity() {
        let i = interp();
        for s0 in 1u64..200 {
            let mut seed = s0.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let f = random_formula(3, &mut seed);
            let shown = f.display_with(&i);
            let back =
                parse(&shown, &i).unwrap_or_else(|e| panic!("could not reparse '{shown}': {e}"));
            assert_eq!(back, f, "via '{shown}'");
        }
    }
}
