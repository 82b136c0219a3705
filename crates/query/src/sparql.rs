//! A SPARQL subset over [`s3pg_rdf::Graph`].
//!
//! Supported grammar:
//!
//! ```text
//! query    := prefix* SELECT DISTINCT? (var+ | '*') WHERE '{' pattern* '}' (LIMIT n)?
//! prefix   := PREFIX name ':' '<' iri '>'
//! pattern  := term term term '.'  |  FILTER '(' expr ')'
//! term     := '?'name | '<'iri'>' | prefixed | 'a' | literal
//! expr     := isLiteral(?v) | isIRI(?v) | ?v op const | expr && expr | expr || expr | !expr
//! ```
//!
//! Evaluation is bottom-up BGP matching with greedy join ordering: at each
//! step the pattern with the smallest index-estimated candidate count under
//! the current bindings is expanded.

use crate::profile::{NoProf, PlanNode, ProfHook, ProfSink};
use s3pg_rdf::fxhash::FxHashMap;
use s3pg_rdf::{Graph, Sym, Term};
use std::borrow::Cow;
use std::fmt;

/// A parse or evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparqlError(pub String);

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SPARQL error: {}", self.0)
    }
}

impl std::error::Error for SparqlError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SparqlError> {
    Err(SparqlError(msg.into()))
}

/// A term position in a triple pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternTerm {
    /// A variable, by name (without `?`).
    Var(String),
    /// An IRI.
    Iri(String),
    /// A literal with optional datatype (plain = xsd:string).
    Literal {
        lexical: String,
        datatype: Option<String>,
    },
    /// `$name`: a query parameter, substituted with a concrete [`Iri`] or
    /// [`Literal`] term from the caller's [`Params`] map before evaluation.
    /// (This dialect reserves `$` for parameters; `?name` is the variable
    /// syntax.)
    ///
    /// [`Iri`]: PatternTerm::Iri
    /// [`Literal`]: PatternTerm::Literal
    Param(String),
}

/// Parameter bindings for one evaluation: `$name` → concrete term. Values
/// must be [`PatternTerm::Iri`] or [`PatternTerm::Literal`].
pub type Params = FxHashMap<String, PatternTerm>;

/// Every `$param` name a parsed query references (triple patterns of the
/// required and OPTIONAL groups), sorted. Callers use this to reject
/// undeclared and unused parameters with a typed error before evaluation.
pub fn param_names(query: &SelectQuery) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    let walk = |pats: &[TriplePattern], out: &mut std::collections::BTreeSet<String>| {
        for pat in pats {
            for term in [&pat.s, &pat.p, &pat.o] {
                if let PatternTerm::Param(name) = term {
                    out.insert(name.clone());
                }
            }
        }
    };
    walk(&query.patterns, &mut out);
    for group in &query.optionals {
        walk(group, &mut out);
    }
    out
}

/// Replace every `$param` term with its bound value. Fails on an unbound
/// parameter or a binding that is not a concrete term.
fn substitute(
    patterns: &[TriplePattern],
    params: &Params,
) -> Result<Vec<TriplePattern>, SparqlError> {
    let sub = |term: &PatternTerm| -> Result<PatternTerm, SparqlError> {
        match term {
            PatternTerm::Param(name) => match params.get(name) {
                Some(t @ (PatternTerm::Iri(_) | PatternTerm::Literal { .. })) => Ok(t.clone()),
                Some(_) => err(format!("parameter ${name} must bind an IRI or literal")),
                None => err(format!("parameter ${name} is not bound")),
            },
            other => Ok(other.clone()),
        }
    };
    patterns
        .iter()
        .map(|pat| {
            Ok(TriplePattern {
                s: sub(&pat.s)?,
                p: sub(&pat.p)?,
                o: sub(&pat.o)?,
            })
        })
        .collect()
}

/// One `s p o .` pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriplePattern {
    pub s: PatternTerm,
    pub p: PatternTerm,
    pub o: PatternTerm,
}

/// A FILTER expression.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterExpr {
    IsLiteral(String),
    IsIri(String),
    Compare {
        var: String,
        op: CompareOp,
        value: String,
    },
    And(Box<FilterExpr>, Box<FilterExpr>),
    Or(Box<FilterExpr>, Box<FilterExpr>),
    Not(Box<FilterExpr>),
}

/// Comparison operators in FILTER.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A parsed SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// Projected variable names; empty means `*` (all, in first-seen order).
    pub vars: Vec<String>,
    pub distinct: bool,
    /// `SELECT (COUNT(...) AS ?alias)` aggregate projection.
    pub aggregate: Option<CountAggregate>,
    pub patterns: Vec<TriplePattern>,
    /// `OPTIONAL { … }` groups (left-join semantics, evaluated after the
    /// required patterns).
    pub optionals: Vec<Vec<TriplePattern>>,
    pub filters: Vec<FilterExpr>,
    /// `ORDER BY (ASC|DESC)?(?var)`.
    pub order_by: Option<(String, bool)>,
    pub offset: Option<usize>,
    pub limit: Option<usize>,
}

/// A `COUNT` aggregate: `COUNT(*)` (var `None`) or
/// `COUNT([DISTINCT] ?var)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountAggregate {
    pub distinct: bool,
    pub var: Option<String>,
    pub alias: String,
}

// ---- parsing ---------------------------------------------------------------

/// Parse a SELECT query.
pub fn parse(input: &str) -> Result<SelectQuery, SparqlError> {
    let mut p = Parser::new(input);
    p.query()
}

struct Parser<'a> {
    rest: &'a str,
    prefixes: FxHashMap<String, String>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            rest: input,
            prefixes: FxHashMap::default(),
        }
    }

    fn skip_ws(&mut self) {
        loop {
            self.rest = self.rest.trim_start();
            if let Some(after) = self.rest.strip_prefix('#') {
                match after.find('\n') {
                    Some(i) => self.rest = &after[i + 1..],
                    None => self.rest = "",
                }
            } else {
                break;
            }
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let len = kw.len();
        if self.rest.len() >= len && self.rest[..len].eq_ignore_ascii_case(kw) {
            let boundary_ok = self.rest[len..]
                .chars()
                .next()
                .is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_');
            if boundary_ok {
                self.rest = &self.rest[len..];
                return true;
            }
        }
        false
    }

    fn eat_char(&mut self, c: char) -> bool {
        self.skip_ws();
        match self.rest.strip_prefix(c) {
            Some(r) => {
                self.rest = r;
                true
            }
            None => false,
        }
    }

    fn peek_char(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest.chars().next()
    }

    fn name(&mut self) -> String {
        let end = self
            .rest
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '_' && c != '-')
            .unwrap_or(self.rest.len());
        let (name, rest) = self.rest.split_at(end);
        self.rest = rest;
        name.to_string()
    }

    fn query(&mut self) -> Result<SelectQuery, SparqlError> {
        while self.eat_keyword("PREFIX") {
            self.skip_ws();
            let pfx = self.name();
            if !self.eat_char(':') {
                return err("expected ':' in PREFIX");
            }
            if !self.eat_char('<') {
                return err("expected '<' in PREFIX");
            }
            let Some(end) = self.rest.find('>') else {
                return err("unterminated PREFIX IRI");
            };
            let iri = self.rest[..end].to_string();
            self.rest = &self.rest[end + 1..];
            self.prefixes.insert(pfx, iri);
        }
        if !self.eat_keyword("SELECT") {
            return err("expected SELECT");
        }
        let distinct = self.eat_keyword("DISTINCT");
        let mut vars = Vec::new();
        let mut star = false;
        let mut aggregate = None;
        if self.peek_char() == Some('(') {
            // (COUNT([DISTINCT] * | ?var) AS ?alias)
            self.eat_char('(');
            if !self.eat_keyword("COUNT") {
                return err("only COUNT aggregates are supported");
            }
            if !self.eat_char('(') {
                return err("expected '(' after COUNT");
            }
            let agg_distinct = self.eat_keyword("DISTINCT");
            let var = if self.eat_char('*') {
                None
            } else if self.eat_char('?') {
                Some(self.name())
            } else {
                return err("expected '*' or '?var' in COUNT");
            };
            if !self.eat_char(')') {
                return err("expected ')' closing COUNT");
            }
            if !self.eat_keyword("AS") || !self.eat_char('?') {
                return err("expected 'AS ?alias' in aggregate");
            }
            let alias = self.name();
            if !self.eat_char(')') {
                return err("expected ')' closing aggregate projection");
            }
            aggregate = Some(CountAggregate {
                distinct: agg_distinct,
                var,
                alias,
            });
        } else {
            loop {
                match self.peek_char() {
                    Some('?') => {
                        self.eat_char('?');
                        vars.push(self.name());
                    }
                    Some('*') if vars.is_empty() => {
                        self.eat_char('*');
                        star = true;
                        break;
                    }
                    _ => break,
                }
            }
            if vars.is_empty() && !star {
                return err("SELECT needs variables or *");
            }
        }
        if !self.eat_keyword("WHERE") {
            return err("expected WHERE");
        }
        if !self.eat_char('{') {
            return err("expected '{'");
        }
        let mut patterns = Vec::new();
        let mut optionals: Vec<Vec<TriplePattern>> = Vec::new();
        let mut filters = Vec::new();
        loop {
            self.skip_ws();
            if self.eat_char('}') {
                break;
            }
            if self.rest.is_empty() {
                return err("unterminated WHERE block");
            }
            if self.eat_keyword("OPTIONAL") {
                if !self.eat_char('{') {
                    return err("expected '{' after OPTIONAL");
                }
                let mut group = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat_char('}') {
                        break;
                    }
                    if self.rest.is_empty() {
                        return err("unterminated OPTIONAL block");
                    }
                    let s = self.term()?;
                    let p = self.term()?;
                    let o = self.term()?;
                    group.push(TriplePattern { s, p, o });
                    self.eat_char('.');
                }
                if group.is_empty() {
                    return err("empty OPTIONAL block");
                }
                optionals.push(group);
                self.eat_char('.');
                continue;
            }
            if self.eat_keyword("FILTER") {
                if !self.eat_char('(') {
                    return err("expected '(' after FILTER");
                }
                filters.push(self.filter_expr()?);
                if !self.eat_char(')') {
                    return err("expected ')' closing FILTER");
                }
                self.eat_char('.');
                continue;
            }
            let s = self.term()?;
            let p = self.term()?;
            let o = self.term()?;
            patterns.push(TriplePattern { s, p, o });
            // Object lists: `?s :p ?o1, ?o2` and predicate lists with ';'.
            loop {
                if self.eat_char(',') {
                    let o2 = self.term()?;
                    patterns.push(TriplePattern {
                        s: patterns.last().unwrap().s.clone(),
                        p: patterns.last().unwrap().p.clone(),
                        o: o2,
                    });
                } else if self.eat_char(';') {
                    self.skip_ws();
                    if matches!(self.peek_char(), Some('.') | Some('}')) {
                        break;
                    }
                    let p2 = self.term()?;
                    let o2 = self.term()?;
                    patterns.push(TriplePattern {
                        s: patterns.last().unwrap().s.clone(),
                        p: p2,
                        o: o2,
                    });
                } else {
                    break;
                }
            }
            self.eat_char('.');
        }
        // Solution modifiers in any order: ORDER BY, LIMIT, OFFSET.
        let mut order_by = None;
        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_keyword("ORDER") {
                if !self.eat_keyword("BY") {
                    return err("expected BY after ORDER");
                }
                let descending = if self.eat_keyword("DESC") {
                    if !self.eat_char('(') {
                        return err("expected '(' after DESC");
                    }
                    true
                } else if self.eat_keyword("ASC") {
                    if !self.eat_char('(') {
                        return err("expected '(' after ASC");
                    }
                    false
                } else {
                    false
                };
                let wrapped = descending || {
                    // ASC( case consumed '(' above; plain `ORDER BY ?v` has none.
                    false
                };
                if !self.eat_char('?') {
                    return err("expected '?var' in ORDER BY");
                }
                let var = self.name();
                if (wrapped || descending) && !self.eat_char(')') {
                    return err("expected ')' closing ORDER BY direction");
                }
                order_by = Some((var, descending));
            } else if self.eat_keyword("LIMIT") {
                self.skip_ws();
                let n = self.name();
                limit = Some(n.parse().map_err(|_| SparqlError("bad LIMIT".into()))?);
            } else if self.eat_keyword("OFFSET") {
                self.skip_ws();
                let n = self.name();
                offset = Some(n.parse().map_err(|_| SparqlError("bad OFFSET".into()))?);
            } else {
                break;
            }
        }
        self.skip_ws();
        if !self.rest.is_empty() {
            return err(format!(
                "trailing input: {}",
                &self.rest[..self.rest.len().min(30)]
            ));
        }
        Ok(SelectQuery {
            vars,
            distinct,
            aggregate,
            patterns,
            optionals,
            filters,
            order_by,
            offset,
            limit,
        })
    }

    fn term(&mut self) -> Result<PatternTerm, SparqlError> {
        self.skip_ws();
        match self.rest.chars().next() {
            Some('?') => {
                self.eat_char('?');
                Ok(PatternTerm::Var(self.name()))
            }
            Some('$') => {
                self.eat_char('$');
                let name = self.name();
                if name.is_empty() {
                    return err("expected parameter name after '$'");
                }
                Ok(PatternTerm::Param(name))
            }
            Some('<') => {
                self.eat_char('<');
                let Some(end) = self.rest.find('>') else {
                    return err("unterminated IRI");
                };
                let iri = self.rest[..end].to_string();
                self.rest = &self.rest[end + 1..];
                Ok(PatternTerm::Iri(iri))
            }
            Some('"') => {
                self.eat_char('"');
                let Some(end) = self.rest.find('"') else {
                    return err("unterminated literal");
                };
                let lexical = self.rest[..end].to_string();
                self.rest = &self.rest[end + 1..];
                let datatype = if self.rest.starts_with("^^") {
                    self.rest = &self.rest[2..];
                    match self.term()? {
                        PatternTerm::Iri(iri) => Some(iri),
                        _ => return err("datatype must be an IRI"),
                    }
                } else {
                    None
                };
                Ok(PatternTerm::Literal { lexical, datatype })
            }
            Some(c) if c.is_ascii_digit() => {
                let n = self.name();
                Ok(PatternTerm::Literal {
                    lexical: n,
                    datatype: Some(s3pg_rdf::vocab::xsd::INTEGER.into()),
                })
            }
            Some(_) => {
                let word = self.name();
                if word == "a" {
                    return Ok(PatternTerm::Iri(s3pg_rdf::vocab::rdf::TYPE.into()));
                }
                if self.rest.starts_with(':') {
                    self.rest = &self.rest[1..];
                    let local = self.name();
                    match self.prefixes.get(&word) {
                        Some(ns) => Ok(PatternTerm::Iri(format!("{ns}{local}"))),
                        None => err(format!("undefined prefix '{word}:'")),
                    }
                } else {
                    err(format!("unexpected token '{word}'"))
                }
            }
            None => err("unexpected end of query"),
        }
    }

    fn filter_expr(&mut self) -> Result<FilterExpr, SparqlError> {
        let left = self.filter_atom()?;
        self.skip_ws();
        if self.rest.starts_with("&&") {
            self.rest = &self.rest[2..];
            let right = self.filter_expr()?;
            return Ok(FilterExpr::And(Box::new(left), Box::new(right)));
        }
        if self.rest.starts_with("||") {
            self.rest = &self.rest[2..];
            let right = self.filter_expr()?;
            return Ok(FilterExpr::Or(Box::new(left), Box::new(right)));
        }
        Ok(left)
    }

    fn filter_atom(&mut self) -> Result<FilterExpr, SparqlError> {
        self.skip_ws();
        if self.eat_char('!') {
            return Ok(FilterExpr::Not(Box::new(self.filter_atom()?)));
        }
        // Parenthesized sub-expression.
        if self.peek_char() == Some('(') {
            self.eat_char('(');
            let inner = self.filter_expr()?;
            if !self.eat_char(')') {
                return err("expected ')' closing grouped filter");
            }
            return Ok(inner);
        }
        if self.eat_keyword("isLiteral") {
            if !self.eat_char('(') || !self.eat_char('?') {
                return err("expected (?var after isLiteral");
            }
            let var = self.name();
            if !self.eat_char(')') {
                return err("expected ')'");
            }
            return Ok(FilterExpr::IsLiteral(var));
        }
        if self.eat_keyword("isIRI") || self.eat_keyword("isURI") {
            if !self.eat_char('(') || !self.eat_char('?') {
                return err("expected (?var after isIRI");
            }
            let var = self.name();
            if !self.eat_char(')') {
                return err("expected ')'");
            }
            return Ok(FilterExpr::IsIri(var));
        }
        if !self.eat_char('?') {
            return err("expected variable in FILTER");
        }
        let var = self.name();
        self.skip_ws();
        let op = if self.rest.starts_with("!=") {
            self.rest = &self.rest[2..];
            CompareOp::Ne
        } else if self.rest.starts_with(">=") {
            self.rest = &self.rest[2..];
            CompareOp::Ge
        } else if self.rest.starts_with("<=") {
            self.rest = &self.rest[2..];
            CompareOp::Le
        } else if let Some(r) = self.rest.strip_prefix('=') {
            self.rest = r;
            CompareOp::Eq
        } else if let Some(r) = self.rest.strip_prefix('>') {
            self.rest = r;
            CompareOp::Gt
        } else if let Some(r) = self.rest.strip_prefix('<') {
            self.rest = r;
            CompareOp::Lt
        } else {
            return err("expected comparison operator in FILTER");
        };
        self.skip_ws();
        let value = if self.eat_char('"') {
            let Some(end) = self.rest.find('"') else {
                return err("unterminated FILTER literal");
            };
            let v = self.rest[..end].to_string();
            self.rest = &self.rest[end + 1..];
            v
        } else {
            self.name()
        };
        Ok(FilterExpr::Compare { var, op, value })
    }
}

// ---- evaluation ------------------------------------------------------------

/// Variable bindings produced by evaluation: projected variables in query
/// order, each row one solution mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solutions {
    /// Projected variable names.
    pub vars: Vec<String>,
    /// Rows aligned with `vars`; `None` is an unbound (OPTIONAL) value.
    pub rows: Vec<Vec<Option<Term>>>,
}

impl Solutions {
    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Parse and evaluate `query` over `graph`. When a trace is active on
/// this thread (the server's request span), the plan and evaluation
/// stages record `query_plan` / `query_eval` child spans.
pub fn execute(graph: &Graph, query: &str) -> Result<Solutions, SparqlError> {
    execute_params(graph, query, &Params::default())
}

/// [`execute`] with parameter bindings: `$name` terms in the query are
/// substituted from `params` before evaluation.
pub fn execute_params(
    graph: &Graph,
    query: &str,
    params: &Params,
) -> Result<Solutions, SparqlError> {
    let q = {
        let _span = s3pg_obs::tracer().span_here("query_plan");
        parse(query)?
    };
    let _span = s3pg_obs::tracer().span_here("query_eval");
    let exec = Exec {
        params,
        ..Exec::default()
    };
    evaluate(graph, &q, &exec)?.into_solutions()
}

#[derive(Clone, Copy)]
enum Slot {
    Var(usize),
    Bound(Option<TermSlot>),
}

#[derive(Clone, Copy)]
enum TermSlot {
    T(Term),
    P(Sym),
}

struct Compiled {
    s: Slot,
    p: Slot,
    o: Slot,
}

enum ResolvedSlot {
    Term(Option<Term>),
    Pred(Option<Sym>),
    Free(usize),
    Never,
}

/// Compile pattern terms against the graph's interner; constants absent
/// from the interner mean the pattern can never match.
fn compile_patterns(
    graph: &Graph,
    patterns: &[TriplePattern],
    var_index: &FxHashMap<String, usize>,
) -> Result<Vec<Compiled>, SparqlError> {
    let compile = |term: &PatternTerm, predicate_pos: bool| -> Result<Slot, SparqlError> {
        Ok(match term {
            PatternTerm::Var(name) => Slot::Var(var_index[name.as_str()]),
            PatternTerm::Iri(iri) => match graph.interner().get(iri) {
                Some(sym) => Slot::Bound(Some(if predicate_pos {
                    TermSlot::P(sym)
                } else {
                    TermSlot::T(Term::Iri(sym))
                })),
                None => Slot::Bound(None),
            },
            PatternTerm::Literal { lexical, datatype } => {
                let dt = datatype
                    .clone()
                    .unwrap_or_else(|| s3pg_rdf::vocab::xsd::STRING.to_string());
                let lex = graph.interner().get(lexical);
                let dts = graph.interner().get(&dt);
                match (lex, dts) {
                    (Some(lex), Some(dts)) => {
                        Slot::Bound(Some(TermSlot::T(Term::Literal(s3pg_rdf::Literal {
                            lexical: lex,
                            datatype: dts,
                            lang: None,
                        }))))
                    }
                    _ => Slot::Bound(None),
                }
            }
            PatternTerm::Param(name) => {
                return err(format!("parameter ${name} is not bound"));
            }
        })
    };
    patterns
        .iter()
        .map(|pat| {
            Ok(Compiled {
                s: compile(&pat.s, false)?,
                p: compile(&pat.p, true)?,
                o: compile(&pat.o, false)?,
            })
        })
        .collect()
}

fn resolve_slot(slot: Slot, binding: &[Option<Term>]) -> ResolvedSlot {
    match slot {
        Slot::Var(i) => match binding[i] {
            Some(t) => ResolvedSlot::Term(Some(t)),
            None => ResolvedSlot::Free(i),
        },
        Slot::Bound(Some(TermSlot::T(t))) => ResolvedSlot::Term(Some(t)),
        Slot::Bound(Some(TermSlot::P(p))) => ResolvedSlot::Pred(Some(p)),
        Slot::Bound(None) => ResolvedSlot::Never,
    }
}

/// Compute a full greedy join order up front: at each step pick the
/// remaining pattern with the smallest index-estimated cardinality under
/// the initial probe binding, preferring patterns that join on a variable
/// an earlier-ordered pattern already binds. Deciding the whole order
/// before execution keeps it identical between the sequential and the
/// partitioned parallel evaluation.
fn order_patterns(graph: &Graph, compiled: &[Compiled], probe: &[Option<Term>]) -> Vec<usize> {
    let slot_var = |slot: Slot| match slot {
        Slot::Var(i) => Some(i),
        Slot::Bound(_) => None,
    };
    let mut bound: Vec<bool> = probe.iter().map(Option::is_some).collect();
    let mut remaining: Vec<usize> = (0..compiled.len()).collect();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (pick_pos, _) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &pi)| {
                let c = &compiled[pi];
                let s = match resolve_slot(c.s, probe) {
                    ResolvedSlot::Term(t) => t,
                    ResolvedSlot::Never => return (pos, (0, 0)),
                    _ => None,
                };
                let p = match resolve_slot(c.p, probe) {
                    ResolvedSlot::Pred(p) => p,
                    ResolvedSlot::Never => return (pos, (0, 0)),
                    _ => None,
                };
                let o = match resolve_slot(c.o, probe) {
                    ResolvedSlot::Term(t) => t,
                    ResolvedSlot::Never => return (pos, (0, 0)),
                    _ => None,
                };
                let joins_bound = [c.s, c.p, c.o]
                    .into_iter()
                    .filter_map(slot_var)
                    .any(|i| bound[i]);
                (
                    pos,
                    (
                        usize::from(!joins_bound),
                        graph.pattern_cardinality(s, p, o),
                    ),
                )
            })
            .min_by_key(|&(_, key)| key)
            .unwrap();
        let pi = remaining.remove(pick_pos);
        for slot in [compiled[pi].s, compiled[pi].p, compiled[pi].o] {
            if let Some(i) = slot_var(slot) {
                bound[i] = true;
            }
        }
        order.push(pi);
    }
    order
}

/// Join a basic graph pattern group into the given binding rows in the
/// greedy order chosen by [`order_patterns`].
fn join_patterns(
    graph: &Graph,
    compiled: &[Compiled],
    results: Vec<Vec<Option<Term>>>,
) -> Vec<Vec<Option<Term>>> {
    let Some(probe) = results.first().cloned() else {
        return results;
    };
    let order = order_patterns(graph, compiled, &probe);
    join_in_order(graph, compiled, &order, results, NoProf)
}

/// Join with up to `threads` workers, morsel-driven: the first ordered
/// pattern expands sequentially, then its result rows are cut into
/// fixed-size morsels behind a shared cursor; workers pull morsels and
/// join the remaining patterns per morsel. Per-morsel results are tagged
/// with their morsel index and merged in index order — byte-identical to
/// the sequential join, but skew-robust (one heavy row run no longer
/// serializes a whole contiguous chunk on a single worker).
fn join_patterns_threads<P: ProfHook>(
    graph: &Graph,
    compiled: &[Compiled],
    results: Vec<Vec<Option<Term>>>,
    threads: usize,
    prof: P,
) -> Vec<Vec<Option<Term>>> {
    let Some(probe) = results.first().cloned() else {
        return results;
    };
    let order = order_patterns(graph, compiled, &probe);
    if threads <= 1 || order.len() < 2 {
        return join_in_order(graph, compiled, &order, results, prof);
    }
    let first_rows = join_in_order(graph, compiled, &order[..1], results, prof);
    // Same work floor as the Cypher path: scoped spawn costs tens of
    // microseconds per worker — more than a small join's entire runtime —
    // so workers engage only when row count × estimated per-row cost of
    // the remaining patterns clears the threshold. Patterns joining an
    // already-bound variable are cheap probes (counted 1); unconstrained
    // patterns cost their index-estimated cardinality per row.
    let slot_var = |slot: Slot| match slot {
        Slot::Var(i) => Some(i),
        Slot::Bound(_) => None,
    };
    let mut est_bound: Vec<bool> = probe.iter().map(Option::is_some).collect();
    for slot in [
        compiled[order[0]].s,
        compiled[order[0]].p,
        compiled[order[0]].o,
    ] {
        if let Some(i) = slot_var(slot) {
            est_bound[i] = true;
        }
    }
    let mut per_row = 1usize;
    for &pi in &order[1..] {
        let c = &compiled[pi];
        let joins_bound = [c.s, c.p, c.o]
            .into_iter()
            .filter_map(slot_var)
            .any(|i| est_bound[i]);
        let cost = if joins_bound {
            1
        } else {
            let term = |slot: Slot| match resolve_slot(slot, &probe) {
                ResolvedSlot::Term(t) => t,
                _ => None,
            };
            let pred = |slot: Slot| match resolve_slot(slot, &probe) {
                ResolvedSlot::Pred(p) => p,
                _ => None,
            };
            let never = [c.s, c.p, c.o]
                .into_iter()
                .any(|slot| matches!(resolve_slot(slot, &probe), ResolvedSlot::Never));
            if never {
                0
            } else {
                graph.pattern_cardinality(term(c.s), pred(c.p), term(c.o))
            }
        };
        per_row = per_row.saturating_add(cost);
        for slot in [c.s, c.p, c.o] {
            if let Some(i) = slot_var(slot) {
                est_bound[i] = true;
            }
        }
    }
    // Engagement is decided on estimated total work alone — morsels handle
    // granularity, so a small first-pattern run with a huge per-row
    // fan-out still parallelizes.
    if first_rows.len().saturating_mul(per_row) < crate::cypher::PARALLEL_MIN_WORK {
        return join_in_order(graph, compiled, &order[1..], first_rows, prof);
    }
    let rest = &order[1..];
    let morsel_size = crate::morsel::morsel_size_for(first_rows.len(), threads);
    let n_morsels = first_rows.len().div_ceil(morsel_size).max(1);
    let n_workers = threads.min(n_morsels);
    let first_rows = &first_rows;
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let fan_out = prof.begin();
    let mut tagged: Vec<(usize, Vec<Vec<Option<Term>>>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut out: Vec<(usize, Vec<Vec<Option<Term>>>)> = Vec::new();
                    loop {
                        let m = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if m >= n_morsels {
                            return out;
                        }
                        let lo = m * morsel_size;
                        let hi = (lo + morsel_size).min(first_rows.len());
                        let rows =
                            join_in_order(graph, compiled, rest, first_rows[lo..hi].to_vec(), prof);
                        if !rows.is_empty() {
                            out.push((m, rows));
                        }
                    }
                })
            })
            .collect();
        prof.note_chunks(format_args!("parallel"), handles.len());
        prof.note_morsels(format_args!("parallel"), n_morsels);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sparql worker panicked"))
            .collect()
    });
    // Morsel order equals first-row order, so sorting the tags restores
    // exactly the sequential output order.
    tagged.sort_unstable_by_key(|&(m, _)| m);
    let merged: Vec<Vec<Option<Term>>> = tagged.into_iter().flat_map(|(_, r)| r).collect();
    prof.record(format_args!("parallel"), merged.len(), fan_out);
    merged
}

fn join_in_order<P: ProfHook>(
    graph: &Graph,
    compiled: &[Compiled],
    order: &[usize],
    results: Vec<Vec<Option<Term>>>,
    prof: P,
) -> Vec<Vec<Option<Term>>> {
    if order.is_empty() || results.is_empty() {
        return results;
    }
    // Bindings travel through the join as one flat column-major-agnostic
    // buffer of `stride` slots per row ([`Term`] is `Copy`): each match
    // extends the output by `memcpy` instead of cloning a fresh `Vec` per
    // emitted row, and a repeated-variable mismatch just truncates the
    // appended slice. Row order and contents are identical to the old
    // row-at-a-time join; only the allocation pattern changes.
    let stride = results[0].len();
    let mut n_rows = results.len();
    let mut flat: Vec<Option<Term>> = Vec::with_capacity(n_rows * stride);
    for row in &results {
        flat.extend_from_slice(row);
    }
    for &pattern_index in order {
        if n_rows == 0 {
            break;
        }
        let started = prof.begin();
        let c = &compiled[pattern_index];

        let mut next: Vec<Option<Term>> = Vec::new();
        let mut next_rows = 0usize;
        for r in 0..n_rows {
            let binding = &flat[r * stride..(r + 1) * stride];
            let (s, s_free) = match resolve_slot(c.s, binding) {
                ResolvedSlot::Term(t) => (t, None),
                ResolvedSlot::Free(i) => (None, Some(i)),
                ResolvedSlot::Never => continue,
                ResolvedSlot::Pred(_) => unreachable!(),
            };
            let (p, p_free) = match resolve_slot(c.p, binding) {
                ResolvedSlot::Pred(p) => (p, None),
                ResolvedSlot::Term(Some(Term::Iri(sym))) => (Some(sym), None),
                ResolvedSlot::Term(_) => continue, // non-IRI bound as predicate
                ResolvedSlot::Free(i) => (None, Some(i)),
                ResolvedSlot::Never => continue,
            };
            let (o, o_free) = match resolve_slot(c.o, binding) {
                ResolvedSlot::Term(t) => (t, None),
                ResolvedSlot::Free(i) => (None, Some(i)),
                ResolvedSlot::Never => continue,
                ResolvedSlot::Pred(_) => unreachable!(),
            };
            for t in graph.match_pattern(s, p, o) {
                let base = next.len();
                next.extend_from_slice(&flat[r * stride..(r + 1) * stride]);
                if let Some(i) = s_free {
                    next[base + i] = Some(t.s);
                }
                if let Some(i) = p_free {
                    let pt = Term::Iri(t.p);
                    if s_free == Some(i) && next[base + i] != Some(pt) {
                        next.truncate(base);
                        continue;
                    }
                    next[base + i] = Some(pt);
                }
                if let Some(i) = o_free {
                    // Same variable may repeat within a pattern.
                    if (s_free == Some(i) && next[base + i] != Some(t.o))
                        || (p_free == Some(i) && next[base + i] != Some(t.o))
                    {
                        next.truncate(base);
                        continue;
                    }
                    next[base + i] = Some(t.o);
                }
                next_rows += 1;
            }
        }
        flat = next;
        n_rows = next_rows;
        prof.record(format_args!("pat{pattern_index}"), n_rows, started);
        prof.note_batches(format_args!("pat{pattern_index}"), 1);
    }
    (0..n_rows)
        .map(|r| flat[r * stride..(r + 1) * stride].to_vec())
        .collect()
}

/// Outcome of a query: solution rows, or an aggregate count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Solutions(Solutions),
    Count { alias: String, value: usize },
}

impl Outcome {
    /// The solution rows. An aggregate (`COUNT`) outcome is an error here;
    /// callers that accept aggregates match on the [`Outcome`] that
    /// [`evaluate`] returns instead.
    pub fn into_solutions(self) -> Result<Solutions, SparqlError> {
        match self {
            Outcome::Solutions(s) => Ok(s),
            Outcome::Count { .. } => {
                err("aggregate query: use sparql::evaluate, which returns the count")
            }
        }
    }
}

/// The empty binding set [`Exec::default`] points at.
static NO_PARAMS: Params = Params::with_hasher(std::hash::BuildHasherDefault::new());

/// How [`evaluate`] runs a parsed query; [`explain`] reads the same
/// struct.
#[derive(Debug, Clone, Copy)]
pub struct Exec<'a> {
    /// Scoped workers joining the required pattern group. Rows merge in
    /// partition order, so the solutions are byte-identical to the
    /// single-threaded evaluation.
    pub threads: usize,
    /// `$name` bindings, substituted before the patterns are compiled
    /// against the interner, so a parameterized query parses once and
    /// evaluates with per-call values.
    pub params: &'a Params,
    /// Per-operator profiling (`PROFILE`): every join step and solution
    /// modifier records rows emitted and wall time under the ids
    /// [`explain`] assigns. Counting happens at stage boundaries, so the
    /// outcome is bit-identical to the unprofiled evaluation.
    pub profile: Option<&'a ProfSink>,
}

impl Default for Exec<'_> {
    fn default() -> Self {
        Exec {
            threads: 1,
            params: &NO_PARAMS,
            profile: None,
        }
    }
}

/// Evaluate a parsed query over `graph`, producing rows or an aggregate
/// count.
pub fn evaluate(graph: &Graph, query: &SelectQuery, exec: &Exec) -> Result<Outcome, SparqlError> {
    let query = bind_params(query, exec.params)?;
    // Dispatch once: the unprofiled arm monomorphizes with the zero-sized
    // NoProf hook, so its loop bodies carry no instrumentation at all.
    match exec.profile {
        None => evaluate_inner(graph, &query, exec.threads, NoProf),
        Some(sink) => evaluate_inner(graph, &query, exec.threads, sink),
    }
}

/// `query` with every `$name` term substituted from `params`, borrowed
/// unchanged when it references no parameter. Rejects a query that
/// references a `$name` missing from `params`.
fn bind_params<'q>(
    query: &'q SelectQuery,
    params: &Params,
) -> Result<Cow<'q, SelectQuery>, SparqlError> {
    let names = param_names(query);
    if names.is_empty() {
        return Ok(Cow::Borrowed(query));
    }
    if let Some(name) = names.iter().find(|name| !params.contains_key(*name)) {
        return err(format!("parameter ${name} is not bound"));
    }
    let mut q = query.clone();
    q.patterns = substitute(&q.patterns, params)?;
    q.optionals = q
        .optionals
        .iter()
        .map(|group| substitute(group, params))
        .collect::<Result<_, _>>()?;
    Ok(Cow::Owned(q))
}

/// Collect variables in first-seen order, across required and optional
/// patterns (optional-only variables may be projected and come out
/// unbound). Shared by evaluation and [`explain`] so operator trees use
/// the exact variable universe evaluation binds.
fn register_vars(query: &SelectQuery) -> (FxHashMap<String, usize>, Vec<String>) {
    let mut var_index: FxHashMap<String, usize> = FxHashMap::default();
    let mut var_names: Vec<String> = Vec::new();
    let mut register = |pats: &[TriplePattern]| {
        for pat in pats {
            for term in [&pat.s, &pat.p, &pat.o] {
                if let PatternTerm::Var(name) = term {
                    if !var_index.contains_key(name) {
                        var_index.insert(name.clone(), var_names.len());
                        var_names.push(name.clone());
                    }
                }
            }
        }
    };
    register(&query.patterns);
    for group in &query.optionals {
        register(group);
    }
    (var_index, var_names)
}

fn evaluate_inner<P: ProfHook>(
    graph: &Graph,
    query: &SelectQuery,
    threads: usize,
    prof: P,
) -> Result<Outcome, SparqlError> {
    let (var_index, var_names) = register_vars(query);
    let nvars = var_names.len();

    let compiled = compile_patterns(graph, &query.patterns, &var_index)?;
    let mut results: Vec<Vec<Option<Term>>> = vec![vec![None; nvars]];
    results = join_patterns_threads(graph, &compiled, results, threads, prof);

    // OPTIONAL groups: left-join — rows that the group cannot extend are
    // kept with the group's variables unbound.
    for (k, group) in query.optionals.iter().enumerate() {
        let started = prof.begin();
        let compiled_group = compile_patterns(graph, group, &var_index)?;
        let mut extended = Vec::with_capacity(results.len());
        for row in results {
            let sub = join_patterns(graph, &compiled_group, vec![row.clone()]);
            if sub.is_empty() {
                extended.push(row);
            } else {
                extended.extend(sub);
            }
        }
        results = extended;
        prof.record(format_args!("optional{k}"), results.len(), started);
    }

    // FILTERs.
    for (j, filter) in query.filters.iter().enumerate() {
        let started = prof.begin();
        results.retain(|row| eval_filter(graph, filter, &var_index, row));
        prof.record(format_args!("filter{j}"), results.len(), started);
    }

    // Aggregate projection.
    if let Some(agg) = &query.aggregate {
        let started = prof.begin();
        let value = match &agg.var {
            None => results.len(),
            Some(var) => {
                let Some(&i) = var_index.get(var.as_str()) else {
                    return err(format!("COUNT over unbound variable ?{var}"));
                };
                if agg.distinct {
                    let mut seen = s3pg_rdf::fxhash::FxHashSet::default();
                    results
                        .iter()
                        .filter_map(|row| row[i])
                        .filter(|t| seen.insert(*t))
                        .count()
                } else {
                    results.iter().filter(|row| row[i].is_some()).count()
                }
            }
        };
        prof.record(format_args!("aggregate"), 1, started);
        return Ok(Outcome::Count {
            alias: agg.alias.clone(),
            value,
        });
    }

    // ORDER BY (before projection: the sort variable need not be projected).
    if let Some((var, descending)) = &query.order_by {
        let started = prof.begin();
        let Some(&i) = var_index.get(var.as_str()) else {
            return err(format!("ORDER BY unbound variable ?{var}"));
        };
        results.sort_by(|a, b| {
            let ord = match (a[i], b[i]) {
                (Some(x), Some(y)) => compare_terms(graph, x, y),
                (None, None) => std::cmp::Ordering::Equal,
                (None, Some(_)) => std::cmp::Ordering::Less, // unbound sorts first
                (Some(_), None) => std::cmp::Ordering::Greater,
            };
            if *descending {
                ord.reverse()
            } else {
                ord
            }
        });
        prof.record(format_args!("sort"), results.len(), started);
    }

    // Projection.
    let started = prof.begin();
    let projected: Vec<String> = if query.vars.is_empty() {
        var_names.clone()
    } else {
        query.vars.clone()
    };
    let mut proj_idx = Vec::with_capacity(projected.len());
    for v in &projected {
        match var_index.get(v.as_str()) {
            Some(&i) => proj_idx.push(i),
            None => return err(format!("projected variable ?{v} not used in pattern")),
        }
    }
    let mut rows: Vec<Vec<Option<Term>>> = Vec::with_capacity(results.len());
    for row in results {
        rows.push(proj_idx.iter().map(|&i| row[i]).collect());
    }
    prof.record(format_args!("project"), rows.len(), started);
    if query.distinct {
        let started = prof.begin();
        let mut seen = s3pg_rdf::fxhash::FxHashSet::default();
        rows.retain(|r| seen.insert(r.clone()));
        prof.record(format_args!("distinct"), rows.len(), started);
    }
    if let Some(offset) = query.offset {
        let started = prof.begin();
        rows.drain(..offset.min(rows.len()));
        prof.record(format_args!("offset"), rows.len(), started);
    }
    if let Some(limit) = query.limit {
        let started = prof.begin();
        rows.truncate(limit);
        prof.record(format_args!("limit"), rows.len(), started);
    }
    Ok(Outcome::Solutions(Solutions {
        vars: projected,
        rows,
    }))
}

/// SPARQL-ish term ordering: numeric when both lexical forms parse as
/// numbers, lexicographic by resolved string otherwise.
fn compare_terms(graph: &Graph, a: Term, b: Term) -> std::cmp::Ordering {
    let render = |t: Term| match t {
        Term::Iri(s) | Term::Blank(s) => graph.resolve(s).to_string(),
        Term::Literal(l) => graph.resolve(l.lexical).to_string(),
    };
    let (x, y) = (render(a), render(b));
    match (x.parse::<f64>(), y.parse::<f64>()) {
        (Ok(nx), Ok(ny)) => nx.partial_cmp(&ny).unwrap_or(std::cmp::Ordering::Equal),
        _ => x.cmp(&y),
    }
}

fn eval_filter(
    graph: &Graph,
    filter: &FilterExpr,
    var_index: &FxHashMap<String, usize>,
    row: &[Option<Term>],
) -> bool {
    match filter {
        FilterExpr::IsLiteral(v) => var_index
            .get(v.as_str())
            .and_then(|&i| row[i])
            .is_some_and(|t| t.is_literal()),
        FilterExpr::IsIri(v) => var_index
            .get(v.as_str())
            .and_then(|&i| row[i])
            .is_some_and(|t| t.is_iri()),
        FilterExpr::Compare { var, op, value } => {
            let Some(term) = var_index.get(var.as_str()).and_then(|&i| row[i]) else {
                return false;
            };
            let actual = match term {
                Term::Iri(s) | Term::Blank(s) => graph.resolve(s).to_string(),
                Term::Literal(l) => graph.resolve(l.lexical).to_string(),
            };
            // Numeric comparison when both sides parse as f64.
            let result = match (actual.parse::<f64>(), value.parse::<f64>()) {
                (Ok(a), Ok(b)) => a.partial_cmp(&b),
                _ => Some(actual.as_str().cmp(value.as_str())),
            };
            let Some(ord) = result else { return false };
            match op {
                CompareOp::Eq => ord.is_eq(),
                CompareOp::Ne => ord.is_ne(),
                CompareOp::Lt => ord.is_lt(),
                CompareOp::Le => ord.is_le(),
                CompareOp::Gt => ord.is_gt(),
                CompareOp::Ge => ord.is_ge(),
            }
        }
        FilterExpr::And(a, b) => {
            eval_filter(graph, a, var_index, row) && eval_filter(graph, b, var_index, row)
        }
        FilterExpr::Or(a, b) => {
            eval_filter(graph, a, var_index, row) || eval_filter(graph, b, var_index, row)
        }
        FilterExpr::Not(a) => !eval_filter(graph, a, var_index, row),
    }
}

// ---- EXPLAIN ---------------------------------------------------------------

/// Render the query's execution strategy as an operator tree without
/// executing it.
///
/// The tree mirrors [`evaluate`] exactly: triple patterns appear in the
/// greedy join order `order_patterns` picks (`TriplePatternScan` for the
/// seed pattern, `TriplePatternJoin` for each subsequent one), followed by
/// the solution modifiers in evaluation order. Operator ids match the ids
/// a profiled [`evaluate`] records, so a `PROFILE` run annotates this same
/// tree via [`PlanNode::annotate`].
///
/// Pattern arguments are rendered from the *original* query terms, so
/// parameter slots stay value-free (`$name`) in cached/logged plans; join
/// ordering and the `est_rows` cardinality estimates use the substituted
/// terms, exactly as evaluation would.
pub fn explain(graph: &Graph, query: &SelectQuery, exec: &Exec) -> Result<PlanNode, SparqlError> {
    let threads = exec.threads;
    let bound = bind_params(query, exec.params)?;
    let (var_index, var_names) = register_vars(query);
    let compiled = compile_patterns(graph, &bound.patterns, &var_index)?;
    let probe: Vec<Option<Term>> = vec![None; var_names.len()];
    let order = order_patterns(graph, &compiled, &probe);

    let est_rows = |c: &Compiled| -> usize {
        let term = |slot: Slot| match resolve_slot(slot, &probe) {
            ResolvedSlot::Term(t) => t,
            _ => None,
        };
        let pred = |slot: Slot| match resolve_slot(slot, &probe) {
            ResolvedSlot::Pred(p) => p,
            _ => None,
        };
        if [c.s, c.p, c.o]
            .into_iter()
            .any(|slot| matches!(resolve_slot(slot, &probe), ResolvedSlot::Never))
        {
            0
        } else {
            graph.pattern_cardinality(term(c.s), pred(c.p), term(c.o))
        }
    };

    let mut node: Option<PlanNode> = None;
    for (i, &pi) in order.iter().enumerate() {
        let op = if i == 0 {
            "TriplePatternScan"
        } else {
            "TriplePatternJoin"
        };
        let next = PlanNode::new(op, format!("pat{pi}"))
            .arg("pattern", render_pattern(&query.patterns[pi]))
            .arg("est_rows", est_rows(&compiled[pi]).to_string())
            .arg("vectorized", "true");
        node = Some(match node {
            Some(prev) => prev.feed(next),
            None => next,
        });
    }
    let mut node = node.unwrap_or_else(|| PlanNode::new("TriplePatternScan", "pat0"));
    if threads > 1 && order.len() >= 2 {
        node = node.feed(
            PlanNode::new("MorselFanOut", "parallel")
                .arg("threads", threads.to_string())
                .arg("morsel_size_max", crate::morsel::MORSEL_SIZE.to_string())
                .arg("vectorized", "true"),
        );
    }
    for (k, group) in query.optionals.iter().enumerate() {
        let rendered: Vec<String> = group.iter().map(render_pattern).collect();
        node = node.feed(
            PlanNode::new("OptionalJoin", format!("optional{k}"))
                .arg("patterns", rendered.join(" . ")),
        );
    }
    for (j, filter) in query.filters.iter().enumerate() {
        node = node.feed(
            PlanNode::new("Filter", format!("filter{j}")).arg("predicate", render_filter(filter)),
        );
    }
    if let Some(agg) = &query.aggregate {
        let mut agg_node = PlanNode::new("Aggregate", "aggregate").arg(
            "count",
            match &agg.var {
                Some(v) => format!("?{v}"),
                None => "*".to_string(),
            },
        );
        if agg.distinct {
            agg_node = agg_node.arg("distinct", "true");
        }
        // COUNT short-circuits the remaining modifiers, like evaluation.
        return Ok(node.feed(agg_node.arg("as", format!("?{}", agg.alias))));
    }
    if let Some((var, descending)) = &query.order_by {
        node = node.feed(
            PlanNode::new("Sort", "sort")
                .arg("key", format!("?{var}"))
                .arg("dir", if *descending { "desc" } else { "asc" }),
        );
    }
    let projected: Vec<String> = if query.vars.is_empty() {
        var_names
    } else {
        query.vars.clone()
    };
    let vars: Vec<String> = projected.iter().map(|v| format!("?{v}")).collect();
    node = node.feed(PlanNode::new("Projection", "project").arg("vars", vars.join(", ")));
    if query.distinct {
        node = node.feed(PlanNode::new("Distinct", "distinct"));
    }
    if let Some(offset) = query.offset {
        node = node.feed(PlanNode::new("Skip", "offset").arg("n", offset.to_string()));
    }
    if let Some(limit) = query.limit {
        node = node.feed(PlanNode::new("Limit", "limit").arg("n", limit.to_string()));
    }
    Ok(node)
}

fn render_pattern_term(term: &PatternTerm) -> String {
    match term {
        PatternTerm::Var(name) => format!("?{name}"),
        PatternTerm::Iri(iri) => format!("<{iri}>"),
        PatternTerm::Literal { lexical, datatype } => match datatype {
            Some(dt) => format!("\"{lexical}\"^^<{dt}>"),
            None => format!("\"{lexical}\""),
        },
        PatternTerm::Param(name) => format!("${name}"),
    }
}

fn render_pattern(pat: &TriplePattern) -> String {
    format!(
        "{} {} {}",
        render_pattern_term(&pat.s),
        render_pattern_term(&pat.p),
        render_pattern_term(&pat.o)
    )
}

fn render_filter(filter: &FilterExpr) -> String {
    match filter {
        FilterExpr::IsLiteral(v) => format!("isLiteral(?{v})"),
        FilterExpr::IsIri(v) => format!("isIRI(?{v})"),
        FilterExpr::Compare { var, op, value } => {
            let sym = match op {
                CompareOp::Eq => "=",
                CompareOp::Ne => "!=",
                CompareOp::Lt => "<",
                CompareOp::Le => "<=",
                CompareOp::Gt => ">",
                CompareOp::Ge => ">=",
            };
            format!("?{var} {sym} \"{value}\"")
        }
        FilterExpr::And(a, b) => format!("({} && {})", render_filter(a), render_filter(b)),
        FilterExpr::Or(a, b) => format!("({} || {})", render_filter(a), render_filter(b)),
        FilterExpr::Not(a) => format!("!({})", render_filter(a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3pg_rdf::parser::parse_turtle;

    fn graph() -> Graph {
        parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Student ; :regNo "Bs12" ; :takesCourse :db, "Self Study" ; :age 24 .
:carol a :Student ; :regNo "Bs13" ; :takesCourse :db ; :age 22 .
:alice a :Professor ; :name "Alice" ; :worksFor :cs .
:db a :Course ; :title "Databases" .
:cs a :Department .
"#,
        )
        .unwrap()
    }

    #[test]
    fn parameterized_object_iri_and_literal() {
        let g = graph();
        let q = parse("PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:takesCourse $course . }")
            .unwrap();
        assert_eq!(
            param_names(&q).into_iter().collect::<Vec<_>>(),
            vec!["course".to_string()]
        );
        // Same parsed query, two bindings: an IRI object and a literal one.
        let mut params = Params::default();
        params.insert("course".into(), PatternTerm::Iri("http://ex/db".into()));
        let exec = Exec {
            params: &params,
            ..Exec::default()
        };
        let sols = match evaluate(&g, &q, &exec).unwrap() {
            Outcome::Solutions(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(sols.len(), 2); // bob and carol take :db
        params.insert(
            "course".into(),
            PatternTerm::Literal {
                lexical: "Self Study".into(),
                datatype: None,
            },
        );
        let exec = Exec {
            params: &params,
            ..Exec::default()
        };
        let sols = match evaluate(&g, &q, &exec).unwrap() {
            Outcome::Solutions(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(sols.len(), 1); // only bob
    }

    #[test]
    fn parameterized_subject_and_predicate() {
        let g = graph();
        let mut params = Params::default();
        params.insert("s".into(), PatternTerm::Iri("http://ex/bob".into()));
        params.insert("p".into(), PatternTerm::Iri("http://ex/regNo".into()));
        let sols = execute_params(&g, "SELECT ?v WHERE { $s $p ?v . }", &params).unwrap();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn unbound_parameter_is_an_error() {
        let g = graph();
        let e =
            execute_params(&g, "SELECT ?s WHERE { ?s ?p $o . }", &Params::default()).unwrap_err();
        assert!(e.0.contains("$o"), "{e}");
        // The params-free evaluation path reports it too (compile stage).
        let q = parse("SELECT ?s WHERE { ?s ?p $o . }").unwrap();
        assert!(evaluate(&g, &q, &Exec::default()).is_err());
    }

    #[test]
    fn variable_parameter_binding_is_rejected() {
        let g = graph();
        let mut params = Params::default();
        params.insert("o".into(), PatternTerm::Var("v".into()));
        let e = execute_params(&g, "SELECT ?s WHERE { ?s ?p $o . }", &params).unwrap_err();
        assert!(e.0.contains("must bind"), "{e}");
    }

    #[test]
    fn single_pattern_by_type() {
        let sols = execute(
            &graph(),
            "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Student . }",
        )
        .unwrap();
        assert_eq!(sols.len(), 2);
        assert_eq!(sols.vars, vec!["s"]);
    }

    #[test]
    fn join_two_patterns() {
        let sols = execute(
            &graph(),
            "PREFIX ex: <http://ex/> SELECT ?s ?c WHERE { ?s a ex:Student . ?s ex:takesCourse ?c . }",
        )
        .unwrap();
        // bob→db, bob→"Self Study", carol→db
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn bound_object_literal() {
        let sols = execute(
            &graph(),
            r#"PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:regNo "Bs12" . }"#,
        )
        .unwrap();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn filter_is_literal_and_is_iri() {
        let q = "PREFIX ex: <http://ex/> SELECT ?c WHERE { ?s ex:takesCourse ?c . FILTER(isLiteral(?c)) }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
        let q =
            "PREFIX ex: <http://ex/> SELECT ?c WHERE { ?s ex:takesCourse ?c . FILTER(isIRI(?c)) }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 2);
    }

    #[test]
    fn filter_numeric_comparison() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a . FILTER(?a > 23) }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a . FILTER(?a >= 22) }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 2);
    }

    #[test]
    fn filter_boolean_combinators() {
        let q = r#"PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a . FILTER(?a > 21 && ?a < 23) }"#;
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
        let q = r#"PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a . FILTER(!(?a = 24)) }"#;
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
    }

    #[test]
    fn distinct_dedups() {
        let q = "PREFIX ex: <http://ex/> SELECT DISTINCT ?c WHERE { ?s ex:takesCourse ?c . FILTER(isIRI(?c)) }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
    }

    #[test]
    fn limit_truncates() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Student . } LIMIT 1";
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
    }

    #[test]
    fn select_star_projects_all_vars() {
        let q = "PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:takesCourse ?c . }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.vars, vec!["s", "c"]);
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn semicolon_predicate_lists() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Student ; ex:regNo ?r . }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 2);
    }

    #[test]
    fn unknown_constants_yield_empty() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Wizard . }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 0);
    }

    #[test]
    fn triangle_join_uses_shared_vars() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s ?d WHERE { ?s ex:worksFor ?d . ?d a ex:Department . }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(execute(&graph(), "SELECT WHERE { }").is_err());
        assert!(execute(&graph(), "SELECT ?x { ?x a ex:Y }").is_err());
        assert!(execute(
            &graph(),
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a nope:Y . }"
        )
        .is_err());
    }

    #[test]
    fn projecting_unused_variable_is_an_error() {
        let q = "PREFIX ex: <http://ex/> SELECT ?nope WHERE { ?s a ex:Student . }";
        assert!(execute(&graph(), q).is_err());
    }

    #[test]
    fn optional_keeps_unextended_rows() {
        // Only alice has a name; students have none.
        let q = "PREFIX ex: <http://ex/> SELECT ?s ?n WHERE { ?s a ex:Student . OPTIONAL { ?s ex:name ?n } }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 2);
        assert!(sols.rows.iter().all(|r| r[0].is_some()));
        assert!(sols.rows.iter().all(|r| r[1].is_none()));
    }

    #[test]
    fn optional_extends_when_possible() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s ?w WHERE { ?s a ex:Professor . OPTIONAL { ?s ex:worksFor ?w } }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 1);
        assert!(sols.rows[0][1].is_some());
    }

    #[test]
    fn optional_multiplies_matches() {
        // takesCourse is multi-valued: the optional produces one row per value.
        let q = "PREFIX ex: <http://ex/> SELECT ?s ?c WHERE { ?s a ex:Student . OPTIONAL { ?s ex:takesCourse ?c } }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 3); // bob×2, carol×1
    }

    #[test]
    fn two_optional_groups_are_independent() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s ?n ?a WHERE { ?s a ex:Student .                  OPTIONAL { ?s ex:name ?n } OPTIONAL { ?s ex:age ?a } }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 2);
        assert!(sols.rows.iter().all(|r| r[1].is_none() && r[2].is_some()));
    }

    #[test]
    fn empty_optional_is_rejected() {
        assert!(execute(&graph(), "SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { } }").is_err());
    }

    #[test]
    fn count_star_aggregate() {
        let q =
            parse("PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?c) WHERE { ?s a ex:Student . }")
                .unwrap();
        let out = evaluate(&graph(), &q, &Exec::default()).unwrap();
        assert_eq!(
            out,
            Outcome::Count {
                alias: "c".into(),
                value: 2
            }
        );
    }

    #[test]
    fn count_distinct_variable() {
        let q = parse(
            "PREFIX ex: <http://ex/> SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?s ex:takesCourse ?c . }",
        )
        .unwrap();
        let out = evaluate(&graph(), &q, &Exec::default()).unwrap();
        // db, "Self Study" → 2 distinct values over 3 rows.
        assert_eq!(
            out,
            Outcome::Count {
                alias: "n".into(),
                value: 2
            }
        );
    }

    #[test]
    fn execute_rejects_aggregates() {
        let e = execute(&graph(), "SELECT (COUNT(*) AS ?c) WHERE { ?s ?p ?o . }").unwrap_err();
        assert!(e.0.contains("use sparql::evaluate"), "{e}");
    }

    #[test]
    fn order_by_ascending_and_descending() {
        let q = "PREFIX ex: <http://ex/> SELECT ?a WHERE { ?s ex:age ?a . } ORDER BY ?a";
        let sols = execute(&graph(), q).unwrap();
        let ages: Vec<String> = sols
            .rows
            .iter()
            .map(|r| match r[0] {
                Some(Term::Literal(l)) => graph().resolve(l.lexical).to_string(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ages, vec!["22", "24"]);
        let q = "PREFIX ex: <http://ex/> SELECT ?a WHERE { ?s ex:age ?a . } ORDER BY DESC(?a)";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn offset_skips_rows() {
        let q = "PREFIX ex: <http://ex/> SELECT ?a WHERE { ?s ex:age ?a . } ORDER BY ?a OFFSET 1";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 1);
        let q = "PREFIX ex: <http://ex/> SELECT ?a WHERE { ?s ex:age ?a . } ORDER BY ?a LIMIT 1 OFFSET 1";
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
    }

    #[test]
    fn order_by_unbound_variable_errors() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Student . } ORDER BY ?nope";
        assert!(execute(&graph(), q).is_err());
    }

    #[test]
    fn variable_predicate() {
        let q = "PREFIX ex: <http://ex/> SELECT DISTINCT ?p WHERE { <http://ex/bob> ?p ?o . }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 4); // rdf:type, regNo, takesCourse, age
    }
}
