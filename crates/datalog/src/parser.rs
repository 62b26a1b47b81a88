//! A parser for Horn-clause programs in conventional Datalog/Prolog-like
//! syntax.
//!
//! Supported forms:
//!
//! ```text
//! % ancestors
//! anc(X, Y) :- par(X, Y).
//! anc(X, Y) :- par(X, Z), anc(Z, Y).
//! par(john, mary).              % an embedded fact
//! ?- anc(john, Y).              % the query
//! ```
//!
//! Variables start with an uppercase letter or `_`; constants, predicate and
//! function symbols start with a lowercase letter (or are quoted with single
//! quotes, or are integers).  Lists use Prolog syntax: `[]`, `[a, b, c]`,
//! `[H | T]`; they desugar to the reserved `cons`/`nil` functors.
//!
//! Stratified extensions: a body atom may be negated with the `not` keyword
//! (`stuck(X) :- pos(X), not can_move(X).` — `not` is only a keyword when
//! followed by a predicate name, so a predicate called `not` with a
//! parenthesized argument list still parses), and one head position may be
//! an aggregate (`total(P, sum<C>) :- part(P, S), cost(S, C).` with
//! `count`/`sum`/`min`/`max`).

use crate::atom::{Atom, Fact};
use crate::error::DatalogError;
use crate::program::Program;
use crate::rule::{AggFunc, Aggregate, Query, Rule};
use crate::term::{Term, Variable};

/// The result of parsing a source text: the rules, the embedded ground
/// facts, and any queries (`?- ...`) in order of appearance.
#[derive(Clone, Debug, Default)]
pub struct ParsedSource {
    /// The program rules (facts excluded).
    pub program: Program,
    /// Ground facts that appeared in the source.
    pub facts: Vec<Fact>,
    /// The queries, in order of appearance.
    pub queries: Vec<Query>,
}

impl ParsedSource {
    /// The first query, if any.
    pub fn query(&self) -> Option<&Query> {
        self.queries.first()
    }
}

#[derive(Clone, PartialEq, Debug)]
enum Token {
    LowerIdent(String),
    UpperIdent(String),
    Int(i64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Dot,
    Pipe,
    Lt,          // < (aggregate heads only)
    Gt,          // > (aggregate heads only)
    Implies,     // :-
    QueryPrefix, // ?-
}

#[derive(Clone, Debug)]
struct Spanned {
    token: Token,
    line: usize,
    column: usize,
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    column: usize,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            chars: source.chars().peekable(),
            line: 1,
            column: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> DatalogError {
        DatalogError::Parse {
            line: self.line,
            column: self.column,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn tokenize(mut self) -> Result<Vec<Spanned>, DatalogError> {
        let mut out = Vec::new();
        loop {
            // Skip whitespace and comments.
            loop {
                match self.chars.peek() {
                    Some(c) if c.is_whitespace() => {
                        self.bump();
                    }
                    Some('%') => {
                        while let Some(c) = self.bump() {
                            if c == '\n' {
                                break;
                            }
                        }
                    }
                    Some('/') => {
                        // Possible `//` comment; otherwise an error later.
                        let mut clone = self.chars.clone();
                        clone.next();
                        if clone.peek() == Some(&'/') {
                            while let Some(c) = self.bump() {
                                if c == '\n' {
                                    break;
                                }
                            }
                        } else {
                            break;
                        }
                    }
                    _ => break,
                }
            }
            let (line, column) = (self.line, self.column);
            let Some(&c) = self.chars.peek() else { break };
            let token = match c {
                '(' => {
                    self.bump();
                    Token::LParen
                }
                ')' => {
                    self.bump();
                    Token::RParen
                }
                '[' => {
                    self.bump();
                    Token::LBracket
                }
                ']' => {
                    self.bump();
                    Token::RBracket
                }
                ',' => {
                    self.bump();
                    Token::Comma
                }
                '.' => {
                    self.bump();
                    Token::Dot
                }
                '|' => {
                    self.bump();
                    Token::Pipe
                }
                '<' => {
                    self.bump();
                    Token::Lt
                }
                '>' => {
                    self.bump();
                    Token::Gt
                }
                ':' => {
                    self.bump();
                    if self.chars.peek() == Some(&'-') {
                        self.bump();
                        Token::Implies
                    } else {
                        return Err(self.error("expected '-' after ':'"));
                    }
                }
                '?' => {
                    self.bump();
                    if self.chars.peek() == Some(&'-') {
                        self.bump();
                        Token::QueryPrefix
                    } else {
                        return Err(self.error("expected '-' after '?'"));
                    }
                }
                '\'' => {
                    self.bump();
                    let mut s = String::new();
                    loop {
                        match self.bump() {
                            Some('\'') => break,
                            // A tab or newline inside a constant would
                            // break every line-framed rendering of it.
                            Some(c) if c.is_control() => {
                                return Err(self.error("control character in quoted constant"))
                            }
                            Some(c) => s.push(c),
                            None => return Err(self.error("unterminated quoted constant")),
                        }
                    }
                    Token::LowerIdent(s)
                }
                '-' => {
                    self.bump();
                    let mut digits = String::new();
                    while let Some(&d) = self.chars.peek() {
                        if d.is_ascii_digit() {
                            digits.push(d);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    if digits.is_empty() {
                        return Err(self.error("expected digits after '-'"));
                    }
                    let v: i64 = digits
                        .parse()
                        .map_err(|_| self.error("integer literal out of range"))?;
                    Token::Int(-v)
                }
                d if d.is_ascii_digit() => {
                    let mut digits = String::new();
                    while let Some(&d) = self.chars.peek() {
                        if d.is_ascii_digit() {
                            digits.push(d);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    let v: i64 = digits
                        .parse()
                        .map_err(|_| self.error("integer literal out of range"))?;
                    Token::Int(v)
                }
                a if a.is_alphabetic() || a == '_' => {
                    let mut ident = String::new();
                    while let Some(&d) = self.chars.peek() {
                        if d.is_alphanumeric() || d == '_' {
                            ident.push(d);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    if a.is_uppercase() || a == '_' {
                        Token::UpperIdent(ident)
                    } else {
                        Token::LowerIdent(ident)
                    }
                }
                other => return Err(self.error(format!("unexpected character {other:?}"))),
            };
            out.push(Spanned {
                token,
                line,
                column,
            });
        }
        Ok(out)
    }
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn new(tokens: Vec<Spanned>) -> Self {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn location(&self) -> (usize, usize) {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|s| (s.line, s.column))
            .unwrap_or((1, 1))
    }

    fn error(&self, message: impl Into<String>) -> DatalogError {
        let (line, column) = self.location();
        DatalogError::Parse {
            line,
            column,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, expected: &Token, what: &str) -> Result<(), DatalogError> {
        match self.peek() {
            Some(t) if t == expected => {
                self.bump();
                Ok(())
            }
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn parse_term(&mut self) -> Result<Term, DatalogError> {
        match self.bump() {
            Some(Token::UpperIdent(name)) => Ok(Term::var(&name)),
            Some(Token::Int(v)) => Ok(Term::Int(v)),
            Some(Token::LowerIdent(name)) => {
                if self.peek() == Some(&Token::LParen) {
                    self.bump();
                    let args = self.parse_term_list(Token::RParen)?;
                    self.expect(&Token::RParen, "')'")?;
                    Ok(Term::app(&name, args))
                } else {
                    Ok(Term::sym(&name))
                }
            }
            Some(Token::LBracket) => self.parse_list(),
            _ => Err(self.error("expected a term")),
        }
    }

    fn parse_list(&mut self) -> Result<Term, DatalogError> {
        if self.peek() == Some(&Token::RBracket) {
            self.bump();
            return Ok(Term::nil());
        }
        let mut items = vec![self.parse_term()?];
        loop {
            match self.peek() {
                Some(Token::Comma) => {
                    self.bump();
                    items.push(self.parse_term()?);
                }
                Some(Token::Pipe) => {
                    self.bump();
                    let tail = self.parse_term()?;
                    self.expect(&Token::RBracket, "']'")?;
                    return Ok(Term::list(items, tail));
                }
                Some(Token::RBracket) => {
                    self.bump();
                    return Ok(Term::list(items, Term::nil()));
                }
                _ => return Err(self.error("expected ',', '|' or ']' in list")),
            }
        }
    }

    fn parse_term_list(&mut self, terminator: Token) -> Result<Vec<Term>, DatalogError> {
        let mut terms = Vec::new();
        if self.peek() == Some(&terminator) {
            return Ok(terms);
        }
        terms.push(self.parse_term()?);
        while self.peek() == Some(&Token::Comma) {
            self.bump();
            terms.push(self.parse_term()?);
        }
        Ok(terms)
    }

    fn parse_atom(&mut self) -> Result<Atom, DatalogError> {
        match self.bump() {
            Some(Token::LowerIdent(name)) => {
                let mut terms = Vec::new();
                if self.peek() == Some(&Token::LParen) {
                    self.bump();
                    terms = self.parse_term_list(Token::RParen)?;
                    self.expect(&Token::RParen, "')'")?;
                }
                Ok(Atom::plain(&name, terms))
            }
            _ => Err(self.error("expected a predicate name")),
        }
    }

    /// Parse a rule head: a plain atom whose term list may contain at most
    /// one aggregate term `func<Var>` with `func` in
    /// `count`/`sum`/`min`/`max`.  The aggregate position holds the plain
    /// variable in the returned atom; the aggregate itself is returned
    /// separately.
    fn parse_head(&mut self) -> Result<(Atom, Option<Aggregate>), DatalogError> {
        let name = match self.bump() {
            Some(Token::LowerIdent(name)) => name,
            _ => return Err(self.error("expected a predicate name")),
        };
        let mut terms = Vec::new();
        let mut aggregate = None;
        if self.peek() == Some(&Token::LParen) {
            self.bump();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    // An aggregate term is a lowercase aggregate-function
                    // name immediately followed by `<`; anything else is an
                    // ordinary term (so a constant named `sum` still parses).
                    let agg_func = match self.peek() {
                        Some(Token::LowerIdent(f)) => AggFunc::from_name(f).filter(|_| {
                            self.tokens.get(self.pos + 1).map(|s| &s.token) == Some(&Token::Lt)
                        }),
                        _ => None,
                    };
                    if let Some(func) = agg_func {
                        self.bump(); // function name
                        self.bump(); // '<'
                        let var = match self.bump() {
                            Some(Token::UpperIdent(v)) => v,
                            _ => {
                                return Err(self.error(format!(
                                    "aggregate argument of {func}<..> must be a variable"
                                )))
                            }
                        };
                        self.expect(&Token::Gt, &format!("'>' closing {func}<{var}"))?;
                        if aggregate.is_some() {
                            return Err(
                                self.error("at most one aggregate is allowed per rule head")
                            );
                        }
                        aggregate = Some(Aggregate {
                            func,
                            var: Variable::new(&var),
                            position: terms.len(),
                        });
                        terms.push(Term::var(&var));
                    } else {
                        terms.push(self.parse_term()?);
                    }
                    if self.peek() == Some(&Token::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen, "')'")?;
        }
        Ok((Atom::plain(&name, terms), aggregate))
    }

    fn parse_clause(&mut self) -> Result<Clause, DatalogError> {
        if self.peek() == Some(&Token::QueryPrefix) {
            self.bump();
            let atom = self.parse_atom()?;
            self.expect(&Token::Dot, "'.' after query")?;
            return Ok(Clause::Query(Query::new(atom)));
        }
        let (head, aggregate) = self.parse_head()?;
        let mut body = Vec::new();
        let mut negated = Vec::new();
        if self.peek() == Some(&Token::Implies) {
            self.bump();
            // An empty body after ':-' (as in the paper's `reverse([],[]) :-`)
            // is allowed.
            if self.peek() != Some(&Token::Dot) {
                loop {
                    // `not` is a keyword only when followed by a predicate
                    // name, so a predicate literally called `not` (always
                    // followed by `(`, `,` or `.` here) still parses.
                    let is_negation = matches!(self.peek(), Some(Token::LowerIdent(w)) if w == "not")
                        && matches!(
                            self.tokens.get(self.pos + 1).map(|s| &s.token),
                            Some(Token::LowerIdent(_))
                        );
                    if is_negation {
                        self.bump();
                        negated.push(self.parse_atom()?);
                    } else {
                        body.push(self.parse_atom()?);
                    }
                    if self.peek() == Some(&Token::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        self.expect(&Token::Dot, "'.' at end of clause")?;
        let mut rule = Rule::new(head, body).with_negated(negated);
        if let Some(agg) = aggregate {
            rule = rule.with_aggregate(agg);
        }
        Ok(Clause::Rule(rule))
    }
}

enum Clause {
    Rule(Rule),
    Query(Query),
}

/// Parse a complete source text into rules, facts and queries.
pub fn parse_source(source: &str) -> Result<ParsedSource, DatalogError> {
    let tokens = Lexer::new(source).tokenize()?;
    let mut parser = Parser::new(tokens);
    let mut result = ParsedSource::default();
    let mut rules = Vec::new();
    while !parser.at_end() {
        match parser.parse_clause()? {
            Clause::Rule(rule) => {
                if rule.is_fact() && rule.head.is_ground() {
                    result
                        .facts
                        .push(rule.head.to_fact().expect("ground atom is a fact"));
                } else {
                    rules.push(rule);
                }
            }
            Clause::Query(q) => result.queries.push(q),
        }
    }
    result.program = Program::from_rules(rules);
    Ok(result)
}

/// Parse a program: every clause (including ground facts, which become rules
/// with empty bodies — e.g. the `reverse([], [])` exit rule of the paper's
/// Appendix) is kept as a rule; queries (`?- ...`) are ignored.
///
/// Use [`parse_source`] instead when the source mixes a program with a data
/// set and a query and you want them separated.
pub fn parse_program(source: &str) -> Result<Program, DatalogError> {
    let tokens = Lexer::new(source).tokenize()?;
    let mut parser = Parser::new(tokens);
    let mut rules = Vec::new();
    while !parser.at_end() {
        match parser.parse_clause()? {
            Clause::Rule(rule) => rules.push(rule),
            Clause::Query(_) => {}
        }
    }
    Ok(Program::from_rules(rules))
}

/// Parse a single rule.
pub fn parse_rule(source: &str) -> Result<Rule, DatalogError> {
    let tokens = Lexer::new(source).tokenize()?;
    let mut parser = Parser::new(tokens);
    match parser.parse_clause()? {
        Clause::Rule(r) => Ok(r),
        Clause::Query(_) => Err(DatalogError::Parse {
            line: 1,
            column: 1,
            message: "expected a rule, found a query".into(),
        }),
    }
}

/// Parse a single query of the form `?- p(...).` (the `?-` prefix and the
/// trailing dot are optional).
pub fn parse_query(source: &str) -> Result<Query, DatalogError> {
    let trimmed = source.trim();
    let normalized = if trimmed.starts_with("?-") {
        trimmed.to_string()
    } else {
        format!("?- {trimmed}")
    };
    let normalized = if normalized.trim_end().ends_with('.') {
        normalized
    } else {
        format!("{normalized}.")
    };
    let tokens = Lexer::new(&normalized).tokenize()?;
    let mut parser = Parser::new(tokens);
    match parser.parse_clause()? {
        Clause::Query(q) => Ok(q),
        Clause::Rule(_) => Err(DatalogError::Parse {
            line: 1,
            column: 1,
            message: "expected a query".into(),
        }),
    }
}

/// Parse a single term (useful in tests and examples).
pub fn parse_term(source: &str) -> Result<Term, DatalogError> {
    let tokens = Lexer::new(source).tokenize()?;
    let mut parser = Parser::new(tokens);
    let t = parser.parse_term()?;
    if !parser.at_end() {
        return Err(parser.error("trailing input after term"));
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::PredName;
    use crate::term::Value;

    #[test]
    fn parse_ancestor_program() {
        let src = "
            % the ancestor program
            anc(X, Y) :- par(X, Y).
            anc(X, Y) :- par(X, Z), anc(Z, Y).
            par(john, mary).
            ?- anc(john, Y).
        ";
        let parsed = parse_source(src).unwrap();
        assert_eq!(parsed.program.len(), 2);
        assert_eq!(parsed.facts.len(), 1);
        assert_eq!(parsed.queries.len(), 1);
        assert_eq!(
            parsed.program.rules[1].to_string(),
            "anc(X, Y) :- par(X, Z), anc(Z, Y)."
        );
        assert_eq!(parsed.queries[0].to_string(), "?- anc(john, Y).");
        assert_eq!(
            parsed.facts[0],
            Fact::plain("par", vec![Value::sym("john"), Value::sym("mary")])
        );
    }

    #[test]
    fn parse_lists_and_function_symbols() {
        let src = "
            append(V, [], [V]) :- list(V).
            append(V, [W | X], [W | Y]) :- append(V, X, Y).
            reverse([], []) :- true_pred.
            reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
        ";
        let p = parse_program(src).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(
            p.rules[1].to_string(),
            "append(V, [W | X], [W | Y]) :- append(V, X, Y)."
        );
        assert!(!p.is_datalog());
    }

    #[test]
    fn parse_empty_body_marker() {
        // The paper writes exit rules for reverse as `reverse([],[]) :-`.
        let r = parse_rule("reverse([], []) :- .").unwrap();
        assert!(r.is_fact());
        assert_eq!(r.head.to_string(), "reverse([], [])");
    }

    #[test]
    fn parse_terms() {
        assert_eq!(parse_term("[a, b, c]").unwrap().to_string(), "[a, b, c]");
        assert_eq!(parse_term("[H | T]").unwrap().to_string(), "[H | T]");
        assert_eq!(
            parse_term("f(X, g(a, 3))").unwrap().to_string(),
            "f(X, g(a, 3))"
        );
        assert_eq!(parse_term("-42").unwrap(), Term::Int(-42));
        assert_eq!(parse_term("'John Smith'").unwrap(), Term::sym("John Smith"));
    }

    #[test]
    fn parse_query_variants() {
        let q1 = parse_query("?- sg(john, Y).").unwrap();
        let q2 = parse_query("sg(john, Y)").unwrap();
        assert_eq!(q1, q2);
        assert_eq!(q1.pred(), &PredName::plain("sg"));
        assert_eq!(q1.adornment().to_string(), "bf");
    }

    #[test]
    fn parse_zero_arity_atoms() {
        let p = parse_program("alarm :- smoke, heat.").unwrap();
        assert_eq!(p.rules[0].body.len(), 2);
        assert_eq!(p.rules[0].head.arity(), 0);
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = parse_program("anc(X, Y) :- par(X Y).").unwrap_err();
        match err {
            DatalogError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(parse_program("anc(X, Y) : par(X, Y).").is_err());
        assert!(parse_program("anc(X, Y").is_err());
        assert!(parse_term("'unterminated").is_err());
        assert!(parse_term("'New\tYork'").is_err());
        assert!(parse_term("'New\nYork'").is_err());
    }

    #[test]
    fn quoted_constants_display_quoted_and_read_back() {
        for src in [
            "par(a, 'New York')",
            "par('X', 'a b'('Y'))",
            "'Not Bare'(a, '')",
            "p([a, 'B c'])",
        ] {
            let q = parse_query(src).unwrap();
            assert_eq!(q.atom.to_string(), src);
            assert_eq!(parse_query(&q.atom.to_string()).unwrap(), q);
        }
        assert_eq!(Term::sym("X").to_string(), "'X'");
        assert_eq!(Value::sym("New York").to_string(), "'New York'");
    }

    #[test]
    fn comments_both_styles() {
        let src = "
            // line comment
            p(X) :- q(X). % trailing comment
            % another
            q(a).
        ";
        let parsed = parse_source(src).unwrap();
        assert_eq!(parsed.program.len(), 1);
        assert_eq!(parsed.facts.len(), 1);
    }

    #[test]
    fn display_parse_roundtrip() {
        let src = "sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).";
        let r = parse_rule(src).unwrap();
        let reparsed = parse_rule(&r.to_string()).unwrap();
        assert_eq!(r, reparsed);
    }

    #[test]
    fn parse_negated_atoms() {
        let r = parse_rule("stuck(X) :- pos(X), not can_move(X).").unwrap();
        assert_eq!(r.body.len(), 1);
        assert_eq!(r.negated.len(), 1);
        assert_eq!(r.negated[0].to_string(), "can_move(X)");
        assert!(r.is_guarded());
        assert_eq!(r.to_string(), "stuck(X) :- pos(X), not can_move(X).");
        // `not` anywhere among the conjuncts; display normalizes to the end.
        let r = parse_rule("lose(X) :- not win(X), pos(X).").unwrap();
        assert_eq!(r.body.len(), 1);
        assert_eq!(r.negated.len(), 1);
        assert_eq!(r.to_string(), "lose(X) :- pos(X), not win(X).");
        // Zero-arity negation.
        let r = parse_rule("quiet :- idle, not alarm.").unwrap();
        assert_eq!(r.negated[0].pred.to_string(), "alarm");
        assert_eq!(r.negated[0].arity(), 0);
        // A predicate literally named `not` (followed by '(') stays positive.
        let r = parse_rule("p(X) :- not(X).").unwrap();
        assert!(r.negated.is_empty());
        assert_eq!(r.body[0].pred.to_string(), "not");
        // ... including when negated itself.
        let r = parse_rule("p(X) :- q(X), not not(X).").unwrap();
        assert_eq!(r.negated[0].pred.to_string(), "not");
        assert_eq!(r.to_string(), "p(X) :- q(X), not not(X).");
    }

    #[test]
    fn parse_aggregate_heads() {
        let r = parse_rule("total(P, sum<C>) :- part(P, S), cost(S, C).").unwrap();
        let agg = r.aggregate.as_ref().unwrap();
        assert_eq!(agg.func, AggFunc::Sum);
        assert_eq!(agg.var.name(), "C");
        assert_eq!(agg.position, 1);
        assert_eq!(r.head.to_string(), "total(P, C)");
        assert_eq!(r.to_string(), "total(P, sum<C>) :- part(P, S), cost(S, C).");
        // Round-trip through display for all four functions, with odd spacing.
        for src in [
            "n(count<X>) :- p(X).",
            "best(G,   min< D >) :- dist(G, D).",
            "worst(G, max<D>) :- dist(G, D).",
            "s(A, sum<B>, c) :- t(A, B).",
        ] {
            let r = parse_rule(src).unwrap();
            assert_eq!(r, parse_rule(&r.to_string()).unwrap());
        }
        // A constant named after an aggregate function is still a constant.
        let r = parse_rule("p(sum, X) :- q(X).").unwrap();
        assert!(r.aggregate.is_none());
        assert_eq!(r.head.terms[0], Term::sym("sum"));
    }

    #[test]
    fn malformed_aggregates_are_rejected() {
        // Two aggregates in one head.
        let err = parse_rule("p(count<X>, sum<Y>) :- q(X, Y).").unwrap_err();
        assert!(
            err.to_string().contains("at most one aggregate"),
            "got {err}"
        );
        // Non-variable aggregate argument.
        let err = parse_rule("p(sum<3>) :- q(X).").unwrap_err();
        assert!(err.to_string().contains("must be a variable"), "got {err}");
        // Unclosed aggregate.
        assert!(parse_rule("p(sum<X) :- q(X).").is_err());
        // Aggregates are not terms: not in bodies, not in queries.
        assert!(parse_rule("p(X) :- q(sum<X>).").is_err());
        assert!(parse_query("?- p(count<X>).").is_err());
    }
}
