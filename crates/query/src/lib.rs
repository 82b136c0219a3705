//! Query engines for the S3PG system.
//!
//! The paper's quality analysis (§5.2, Tables 6–7) executes SPARQL queries
//! over the source RDF graphs as ground truth and compares the answer counts
//! of manually translated Cypher queries over the transformed property
//! graphs. This crate provides both engines over the in-memory stores:
//!
//! * [`sparql`] — a SPARQL subset: `PREFIX`, `SELECT (DISTINCT)? ?vars | *`,
//!   basic graph patterns with `a`, literals and IRIs, `FILTER` with
//!   comparisons / `isLiteral` / `isIRI`, `LIMIT`. Joins are ordered
//!   greedily by index-estimated cardinality.
//! * [`cypher`] — a Cypher subset sufficient for the paper's translated
//!   queries (see Q22 in §5.2): `MATCH` with multi-hop patterns and label
//!   predicates, `WHERE`, `RETURN ... AS ...` with property access and
//!   `COALESCE`, `UNWIND`, `UNION ALL`, `DISTINCT`, `LIMIT`.
//! * [`results`] — the `tr(µ)` conversion of Definition 3.2 mapping SPARQL
//!   results onto the value domain of Cypher results, plus multiset
//!   comparison used by the accuracy metric.
//! * [`profile`] — serializable operator trees (`EXPLAIN`) and the
//!   per-operator statistics sink (`PROFILE`) both engines render into.
//!
//! Each engine has one evaluation entry per level. `execute` and
//! `execute_params` run query text. [`cypher::evaluate`] and
//! [`sparql::evaluate`] run a parsed query and take every execution choice
//! in one options struct: [`cypher::Exec`] carries threads, parameters,
//! the profiling sink, and the physical [`cypher::ExecTuning`];
//! [`sparql::Exec`] carries threads, parameters, and the sink.
//! [`cypher::explain`] and [`sparql::explain`] take the same struct and
//! render the operator tree the evaluator dispatches to.
//! [`cypher::evaluate_scan`] is the unplanned reference the differential
//! tests compare against.

pub mod cypher;
pub(crate) mod morsel;
pub mod profile;
pub mod results;
pub mod sparql;
pub(crate) mod vectorized;

pub use results::{accuracy, render_term, render_value, ResultSet};
