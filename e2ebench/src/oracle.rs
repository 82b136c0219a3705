//! Seeded inputs and the in-process oracle every served answer is
//! checked against.
//!
//! From the seed: the DBpedia-2022 emulation at scale 10 (written as
//! `G.nt` for the binaries), the scan queries (the paper's Q22-shaped
//! category queries) and their `F_qt` Cypher translations, single-entity
//! lookups, and the §5.4 evolution Δ cut into fixed-size batches. The
//! oracle is the same library the binaries link, called directly:
//! `sparql::execute_params` on G and `cypher::execute_params` on F(G).

use s3pg::pipeline::{transform_with, PipelineConfig, TransformOutput};
use s3pg::query_translate::translate_str;
use s3pg::Mode;
use s3pg_query::results::ResultSet;
use s3pg_query::{cypher, sparql};
use s3pg_rdf::fxhash::{FxHashMap, FxHashSet};
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::serializer::to_ntriples;
use s3pg_rdf::{Graph, Term};
use s3pg_shacl::{extract_shapes, ShapeSchema};
use s3pg_workloads::evolution::{evolve, EvolutionSpec};
use s3pg_workloads::spec::{generate, GeneratedDataset};
use s3pg_workloads::{dbpedia, generate_queries};
use std::path::{Path, PathBuf};

use crate::wire::Rows;

/// Scale of the DBpedia-2022 emulation (≈308k triples, 34 MB N-Triples).
pub const SCALE: f64 = 10.0;
/// Worker threads for the startup transform, the server and the oracle.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
/// Δ triples per update request.
pub const BATCH_TRIPLES: usize = 32;
/// Entities per lookup template.
const LOOKUP_ENTITIES: usize = 16;

/// Query language of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lang {
    Sparql,
    Cypher,
}

/// A read request template: one query in both languages.
#[derive(Debug, Clone)]
pub struct Query {
    pub sparql: String,
    pub cypher: String,
}

/// One single-entity lookup: a template index and the entity IRI bound
/// to `$e`.
#[derive(Debug, Clone)]
pub struct Lookup {
    pub template: usize,
    pub entity: String,
}

/// One Δ batch as N-Triples documents.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    pub additions: String,
    pub deletions: String,
    pub triples: usize,
}

impl Batch {
    pub fn request_line(&self) -> String {
        s3pg_server::protocol::Request::Update {
            additions: self.additions.clone(),
            deletions: self.deletions.clone(),
        }
        .encode()
    }
}

/// Everything a run derives from its seed.
pub struct Inputs {
    pub seed: u64,
    pub dataset: GeneratedDataset,
    pub nt_path: PathBuf,
    pub nt_bytes: usize,
    pub shapes: ShapeSchema,
    /// The oracle F(G), computed in-process.
    pub out: TransformOutput,
    pub scans: Vec<Query>,
    pub lookup_templates: Vec<Query>,
    pub lookups: Vec<Lookup>,
    pub batches: Vec<Batch>,
}

/// Derive a sub-seed so each random choice has its own stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^ (x >> 33)
}

impl Inputs {
    /// Generate the dataset, write `G.nt` into `dir`, and build the oracle.
    pub fn build(seed: u64, dir: &Path) -> Result<Inputs, String> {
        let mut spec = dbpedia::dbpedia2022(SCALE);
        spec.seed = sub_seed(seed, 1);
        let dataset = generate(&spec);
        let nt = to_ntriples(&dataset.graph);
        let nt_path = dir.join("G.nt");
        std::fs::write(&nt_path, &nt).map_err(|e| format!("write G.nt: {e}"))?;
        let shapes = extract_shapes(&dataset.graph);
        let out = transform_with(
            &dataset.graph,
            &shapes,
            Mode::Parsimonious,
            PipelineConfig { threads: nproc() },
        );
        if !out.conformance.conforms() {
            return Err("oracle transform does not conform".into());
        }
        let mapping = &out.schema.mapping;
        let mut rng = XorShiftRng::seed_from_u64(sub_seed(seed, 2));

        // One scan per query category, chosen among the generated ones.
        let all = generate_queries(&dataset.meta, 3);
        let mut chosen = Vec::new();
        for category in s3pg_workloads::QueryCategory::ALL {
            let of: Vec<_> = all.iter().filter(|q| q.category == category).collect();
            if !of.is_empty() {
                chosen.push(of[rng.random_range(0..of.len())].clone());
            }
        }
        let translate = |sparql: String| -> Result<Query, String> {
            let cypher = translate_str(&sparql, mapping).map_err(|e| format!("F_qt: {e}"))?;
            Ok(Query { sparql, cypher })
        };
        let scans = chosen
            .iter()
            .map(|q| translate(q.sparql.clone()))
            .collect::<Result<Vec<_>, _>>()?;

        let evo = evolve(
            &dataset,
            &spec,
            &EvolutionSpec {
                seed: sub_seed(seed, 3),
                ..EvolutionSpec::default()
            },
        );
        let touched = touched_iris(&evo.additions)
            .union(&touched_iris(&evo.deletions))
            .cloned()
            .collect::<FxHashSet<String>>();
        let batches = cut_batches(
            &to_ntriples(&evo.additions),
            &to_ntriples(&evo.deletions),
            &spec.namespace,
            &mut XorShiftRng::seed_from_u64(sub_seed(seed, 4)),
        );

        // Lookups: the projected predicate of each scan, for entities of
        // its class that the Δ never touches (so one static answer holds
        // for the whole of a mixed run).
        let graph = &dataset.graph;
        let mut lookup_templates = Vec::new();
        let mut lookups = Vec::new();
        for q in &chosen {
            let template = lookup_templates.len();
            // F_qt turns the parameterized subject into an unlabeled
            // `MATCH (v_s1) WHERE v_s1.iri = $e`, which scans every node;
            // the lookup adds the class label so the (label, iri)
            // equality index serves it, and is otherwise F_qt's text.
            let mut lookup = translate(format!("SELECT ?p WHERE {{ $e <{}> ?p . }}", q.predicate))?;
            let label = mapping
                .label_of_class
                .get(&q.class)
                .ok_or("query class has no label")?;
            let labeled =
                lookup
                    .cypher
                    .replacen("MATCH (v_s1)", &format!("MATCH (v_s1:{label})"), 1);
            if labeled == lookup.cypher {
                return Err(format!("unexpected lookup translation: {}", lookup.cypher));
            }
            lookup.cypher = labeled;
            lookup_templates.push(lookup);
            let class = graph
                .interner()
                .get(&q.class)
                .map(Term::Iri)
                .ok_or("query class is not in G")?;
            let mut candidates: Vec<String> = graph
                .instances_of(class)
                .iter()
                .filter_map(|&t| match t {
                    Term::Iri(s) => Some(graph.resolve(s).to_string()),
                    _ => None,
                })
                .filter(|iri| !touched.contains(iri))
                .collect();
            candidates.sort();
            for _ in 0..LOOKUP_ENTITIES.min(candidates.len()) {
                let i = rng.random_range(0..candidates.len());
                lookups.push(Lookup {
                    template,
                    entity: candidates.swap_remove(i),
                });
            }
        }
        if scans.is_empty() || lookups.is_empty() {
            return Err("no scans or lookups could be drawn".into());
        }
        Ok(Inputs {
            seed,
            dataset,
            nt_path,
            nt_bytes: nt.len(),
            shapes,
            out,
            scans,
            lookup_templates,
            lookups,
            batches,
        })
    }
}

/// IRIs a Δ mentions as subject or object.
fn touched_iris(delta: &Graph) -> FxHashSet<String> {
    let mut out = FxHashSet::default();
    for t in delta.triples() {
        for term in [t.s, t.o] {
            if let Term::Iri(s) = term {
                out.insert(delta.resolve(s).to_string());
            }
        }
    }
    out
}

/// Subject and predicate of an N-Triples line.
fn subject_predicate(line: &str) -> (&str, &str) {
    let mut parts = line.splitn(3, ' ');
    (parts.next().unwrap_or(""), parts.next().unwrap_or(""))
}

/// Cut a Δ into batches of about [`BATCH_TRIPLES`] triples. Items keep
/// what belongs together: a new entity's triples (type first), and an
/// update's delete+add pair. Kinds (deletions, updates, new entities)
/// are interleaved by a seeded draw weighted by what remains of each.
pub fn cut_batches(
    additions_nt: &str,
    deletions_nt: &str,
    namespace: &str,
    rng: &mut XorShiftRng,
) -> Vec<Batch> {
    let entity_prefix = format!("<{namespace}delta_e");
    let mut deletions_by_sp: FxHashMap<(&str, &str), Vec<&str>> = FxHashMap::default();
    for line in deletions_nt.lines().filter(|l| !l.is_empty()) {
        deletions_by_sp
            .entry(subject_predicate(line))
            .or_default()
            .push(line);
    }
    // (additions, deletions) per item, in first-seen order.
    let mut entities: Vec<(Vec<&str>, Vec<&str>)> = Vec::new();
    let mut entity_index: FxHashMap<&str, usize> = FxHashMap::default();
    let mut updates: Vec<(Vec<&str>, Vec<&str>)> = Vec::new();
    for line in additions_nt.lines().filter(|l| !l.is_empty()) {
        let (s, p) = subject_predicate(line);
        if s.starts_with(&entity_prefix) {
            let i = *entity_index.entry(s).or_insert_with(|| {
                entities.push((Vec::new(), Vec::new()));
                entities.len() - 1
            });
            entities[i].0.push(line);
        } else {
            let paired = deletions_by_sp
                .get_mut(&(s, p))
                .and_then(Vec::pop)
                .into_iter()
                .collect();
            updates.push((vec![line], paired));
        }
    }
    // A new entity's type triple goes first.
    for (adds, _) in &mut entities {
        adds.sort_by_key(|l| !l.contains("22-rdf-syntax-ns#type>"));
    }
    let mut deletes: Vec<(Vec<&str>, Vec<&str>)> = Vec::new();
    let mut rest: Vec<&str> = deletions_by_sp.into_values().flatten().collect();
    rest.sort_unstable();
    deletes.extend(rest.into_iter().map(|l| (Vec::new(), vec![l])));

    let mut queues = [
        deletes.into_iter(),
        updates.into_iter(),
        entities.into_iter(),
    ];
    let mut remaining: Vec<usize> = queues.iter().map(|q| q.len()).collect();
    let mut batches = Vec::new();
    let mut batch = Batch::default();
    while remaining.iter().sum::<usize>() > 0 {
        let mut pick = rng.random_range(0..remaining.iter().sum::<usize>());
        let kind = remaining
            .iter()
            .position(|&r| {
                if pick < r {
                    true
                } else {
                    pick -= r;
                    false
                }
            })
            .expect("pick is below the total");
        remaining[kind] -= 1;
        let (adds, dels) = queues[kind].next().expect("queue length tracked");
        for l in &adds {
            batch.additions.push_str(l);
            batch.additions.push('\n');
        }
        for l in &dels {
            batch.deletions.push_str(l);
            batch.deletions.push('\n');
        }
        batch.triples += adds.len() + dels.len();
        if batch.triples >= BATCH_TRIPLES {
            batches.push(std::mem::take(&mut batch));
        }
    }
    if batch.triples > 0 {
        batches.push(batch);
    }
    batches
}

/// Oracle answer of a read, as a sorted multiset.
pub fn answer_sparql(
    graph: &Graph,
    query: &str,
    entity: Option<&str>,
) -> Result<ResultSet, String> {
    let mut params = sparql::Params::default();
    if let Some(e) = entity {
        params.insert("e".into(), sparql::PatternTerm::Iri(e.to_string()));
    }
    let sols = sparql::execute_params(graph, query, &params).map_err(|e| e.to_string())?;
    Ok(ResultSet::from_sparql(graph, &sols))
}

pub fn answer_cypher(
    pg: &s3pg_pg::PropertyGraph,
    query: &str,
    entity: Option<&str>,
) -> Result<ResultSet, String> {
    let mut params = cypher::Params::default();
    if let Some(e) = entity {
        params.insert("e".into(), s3pg_pg::Value::String(e.to_string()));
    }
    let rows = cypher::execute_params(pg, query, &params).map_err(|e| e.to_string())?;
    Ok(ResultSet::from_cypher(&rows))
}

/// Whether served rows equal the oracle's multiset.
pub fn same_answer(expected: &ResultSet, served: Rows) -> bool {
    ResultSet::from_rendered_rows(served).same_as(expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(cells: &[&[&str]]) -> Rows {
        cells
            .iter()
            .map(|r| r.iter().map(|c| Some(c.to_string())).collect())
            .collect()
    }

    #[test]
    fn comparator_is_order_insensitive_and_rejects_a_perturbed_row() {
        let expected =
            ResultSet::from_rendered_rows(rows(&[&["a", "1"], &["b", "2"], &["b", "2"]]));
        assert!(same_answer(
            &expected,
            rows(&[&["b", "2"], &["a", "1"], &["b", "2"]])
        ));
        // One cell changed.
        assert!(!same_answer(
            &expected,
            rows(&[&["b", "2"], &["a", "1"], &["b", "3"]])
        ));
        // Multiplicity matters.
        assert!(!same_answer(&expected, rows(&[&["b", "2"], &["a", "1"]])));
        // NULL is not the string "null".
        let mut with_null = rows(&[&["a", "1"], &["b", "2"], &["b", "2"]]);
        with_null[0][1] = None;
        assert!(!same_answer(&expected, with_null));
    }

    #[test]
    fn batches_keep_updates_and_entities_together() {
        let adds = "<http://n/delta_e0> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://n/C> .\n\
                    <http://n/delta_e0> <http://n/p> \"v\" .\n\
                    <http://n/x> <http://n/q> \"updated value 0\" .\n";
        let dels = "<http://n/x> <http://n/q> \"old\" .\n<http://n/y> <http://n/q> \"gone\" .\n";
        let mut rng = XorShiftRng::seed_from_u64(7);
        let batches = cut_batches(adds, dels, "http://n/", &mut rng);
        let total: usize = batches.iter().map(|b| b.triples).sum();
        assert_eq!(total, 5);
        let all_adds: String = batches.iter().map(|b| b.additions.as_str()).collect();
        let type_at = all_adds.find("#type>").unwrap();
        assert!(type_at < all_adds.find("\"v\"").unwrap());
        // The update's delete and add land in the same batch.
        let b = batches
            .iter()
            .find(|b| b.additions.contains("updated value 0"))
            .unwrap();
        assert!(b.deletions.contains("\"old\""));
    }

    #[test]
    fn sub_seeds_differ_per_stream_and_repeat_per_seed() {
        assert_eq!(sub_seed(5, 1), sub_seed(5, 1));
        assert_ne!(sub_seed(5, 1), sub_seed(5, 2));
        assert_ne!(sub_seed(5, 1), sub_seed(6, 1));
    }
}
