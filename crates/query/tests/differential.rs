//! Differential testing of the SPARQL engine: the optimized evaluator
//! (greedy join ordering over indexes) must agree with a naive reference
//! evaluator (nested loops over full scans) on arbitrary graphs and
//! basic graph patterns.
//!
//! Formerly a proptest suite; now driven by the in-tree deterministic
//! [`XorShiftRng`] so the offline build needs no external registry crates.
//! Each case is reproducible from the seed in its failure message.

use s3pg_query::sparql::{self, PatternTerm, SelectQuery, TriplePattern};
use s3pg_rdf::fxhash::FxHashMap;
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::{Graph, Term};

// ---- naive reference evaluator ---------------------------------------------

fn naive_solve(graph: &Graph, patterns: &[TriplePattern]) -> Vec<FxHashMap<String, Term>> {
    let mut rows: Vec<FxHashMap<String, Term>> = vec![FxHashMap::default()];
    for pat in patterns {
        let mut next = Vec::new();
        for row in &rows {
            for t in graph.match_pattern_scan(None, None, None) {
                let mut candidate = row.clone();
                if bind(graph, &mut candidate, &pat.s, t.s)
                    && bind(graph, &mut candidate, &pat.p, Term::Iri(t.p))
                    && bind(graph, &mut candidate, &pat.o, t.o)
                {
                    next.push(candidate);
                }
            }
        }
        rows = next;
    }
    rows
}

fn bind(
    graph: &Graph,
    row: &mut FxHashMap<String, Term>,
    pattern: &PatternTerm,
    actual: Term,
) -> bool {
    match pattern {
        PatternTerm::Var(name) => match row.get(name) {
            Some(&bound) => bound == actual,
            None => {
                row.insert(name.clone(), actual);
                true
            }
        },
        PatternTerm::Iri(iri) => match actual {
            Term::Iri(sym) => graph.resolve(sym) == iri,
            _ => false,
        },
        PatternTerm::Literal { lexical, datatype } => match actual {
            Term::Literal(l) => {
                graph.resolve(l.lexical) == lexical
                    && l.lang.is_none()
                    && graph.resolve(l.datatype)
                        == datatype.as_deref().unwrap_or(s3pg_rdf::vocab::xsd::STRING)
            }
            _ => false,
        },
        // The generator never emits parameters; they are substituted away
        // before evaluation anyway.
        PatternTerm::Param(_) => false,
    }
}

// ---- generation -------------------------------------------------------------

/// A tiny closed world so patterns actually join: 4 subjects, 3 predicates,
/// 4 objects (2 IRIs shared with subjects, 2 literals).
fn arb_triples(rng: &mut XorShiftRng) -> Vec<(u8, u8, u8)> {
    let n = rng.random_range(1..24usize);
    (0..n)
        .map(|_| {
            (
                rng.random_range(0..4u8),
                rng.random_range(0..3u8),
                rng.random_range(0..6u8),
            )
        })
        .collect()
}

fn build_graph(triples: &[(u8, u8, u8)]) -> Graph {
    let mut g = Graph::new();
    for &(si, pi, oi) in triples {
        let s = g.intern_iri(&format!("http://d/e{si}"));
        let p = g.intern(format!("http://d/p{pi}").as_str());
        let o = if oi < 4 {
            g.intern_iri(&format!("http://d/e{oi}"))
        } else {
            g.string_literal(&format!("lit{}", oi - 4))
        };
        g.insert(s, p, o);
    }
    g
}

/// Random pattern term: a variable from a small pool (weight 3) or a
/// constant from the closed world (weights 1 + 1).
fn arb_term(rng: &mut XorShiftRng, var_pool: &[&str]) -> PatternTerm {
    match rng.random_range(0..5u8) {
        0..=2 => PatternTerm::Var(var_pool[rng.random_range(0..var_pool.len())].to_string()),
        3 => PatternTerm::Iri(format!("http://d/e{}", rng.random_range(0..4u8))),
        _ => PatternTerm::Literal {
            lexical: format!("lit{}", rng.random_range(0..2u8)),
            datatype: None,
        },
    }
}

fn arb_pattern(rng: &mut XorShiftRng) -> TriplePattern {
    const SUBJECT_VARS: &[&str] = &["a", "b", "c"];
    let s = arb_term(rng, SUBJECT_VARS);
    // Predicate: a constant (weight 3) or the `p` variable (weight 1).
    let p = if rng.random_range(0..4u8) < 3 {
        PatternTerm::Iri(format!("http://d/p{}", rng.random_range(0..3usize)))
    } else {
        PatternTerm::Var("p".to_string())
    };
    let o = arb_term(rng, SUBJECT_VARS);
    TriplePattern { s, p, o }
}

fn query_from(patterns: Vec<TriplePattern>) -> SelectQuery {
    // Project every variable that occurs, in sorted order, for stable rows.
    let mut vars: Vec<String> = patterns
        .iter()
        .flat_map(|p| [&p.s, &p.p, &p.o])
        .filter_map(|t| match t {
            PatternTerm::Var(v) => Some(v.clone()),
            _ => None,
        })
        .collect();
    vars.sort();
    vars.dedup();
    SelectQuery {
        vars,
        distinct: false,
        aggregate: None,
        patterns,
        optionals: vec![],
        filters: vec![],
        order_by: None,
        offset: None,
        limit: None,
    }
}

fn canonical(
    graph: &Graph,
    vars: &[String],
    rows: Vec<FxHashMap<String, Term>>,
) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = rows
        .into_iter()
        .map(|row| {
            vars.iter()
                .map(|v| render(graph, row.get(v).copied()))
                .collect()
        })
        .collect();
    out.sort();
    out
}

fn render(graph: &Graph, t: Option<Term>) -> String {
    match t {
        None => "∅".into(),
        Some(Term::Iri(s)) | Some(Term::Blank(s)) => graph.resolve(s).to_string(),
        Some(Term::Literal(l)) => format!("\"{}\"", graph.resolve(l.lexical)),
    }
}

/// The engine's solutions equal the naive evaluator's on any BGP — a
/// subject-position literal is the only rejection case (the naive evaluator
/// never produces it, the engine pre-filters it identically because literals
/// cannot occur as subjects in the store).
#[test]
fn engine_matches_naive() {
    for seed in 0..96u64 {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let triples = arb_triples(&mut rng);
        let n_patterns = rng.random_range(1..4usize);
        let patterns: Vec<TriplePattern> = (0..n_patterns).map(|_| arb_pattern(&mut rng)).collect();

        let graph = build_graph(&triples);
        let query = query_from(patterns.clone());
        if query.vars.is_empty() {
            // Fully-ground patterns project nothing; skip (the parser
            // requires projected variables).
            continue;
        }

        let engine = sparql::evaluate(&graph, &query, &sparql::Exec::default())
            .and_then(sparql::Outcome::into_solutions)
            .unwrap();
        let engine_rows: Vec<Vec<String>> = {
            let mut rows: Vec<Vec<String>> = engine
                .rows
                .iter()
                .map(|r| r.iter().map(|t| render(&graph, *t)).collect())
                .collect();
            rows.sort();
            rows
        };

        let naive = naive_solve(&graph, &patterns);
        let naive_rows = canonical(&graph, &query.vars, naive);

        assert_eq!(engine_rows, naive_rows, "seed {seed}");
    }
}

#[test]
fn engine_matches_naive_on_fixed_join() {
    let graph = build_graph(&[(0, 0, 1), (1, 1, 4), (2, 0, 1), (1, 0, 3)]);
    let patterns = vec![
        TriplePattern {
            s: PatternTerm::Var("a".into()),
            p: PatternTerm::Iri("http://d/p0".into()),
            o: PatternTerm::Var("b".into()),
        },
        TriplePattern {
            s: PatternTerm::Var("b".into()),
            p: PatternTerm::Iri("http://d/p1".into()),
            o: PatternTerm::Var("c".into()),
        },
    ];
    let query = query_from(patterns.clone());
    let engine = sparql::evaluate(&graph, &query, &sparql::Exec::default())
        .and_then(sparql::Outcome::into_solutions)
        .unwrap();
    let naive = naive_solve(&graph, &patterns);
    assert_eq!(engine.rows.len(), naive.len());
    assert_eq!(engine.rows.len(), 2); // e0→e1→lit0 and e2→e1→lit0
}
