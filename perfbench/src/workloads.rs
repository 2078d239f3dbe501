//! The three workloads: seeded documents, query mixes and request
//! streams, plus each distinct query's reference result, computed by a
//! different engine before anything is timed.

use std::collections::BTreeSet;

use staircase_accel::{Doc, NodeKind, NO_PARENT};
use staircase_xmlgen::{
    generate, generate_misleading_xml, generate_skewed_xml, generate_xml, MisleadConfig,
    SkewConfig, XmarkConfig,
};
use staircase_xpath::{Engine, Session};

use crate::util::{nproc, Fingerprint, Rng, Zipf};

pub const WORKLOADS: [&str; 3] = ["xmark-local", "xmark-wire", "plan-skew"];

/// Q1 and Q2 of the paper, then the repository's vertical and mixed
/// batch workloads (which repeat Q1 and Q2, so those weigh double).
const XMARK_LOCAL_MIX: [&str; 18] = [
    "/descendant::profile/descendant::education",
    "/descendant::increase/ancestor::bidder",
    "/descendant::profile/descendant::education",
    "/descendant::increase/ancestor::bidder",
    "/descendant::bidder",
    "/descendant::date/ancestor::open_auction",
    "/descendant::person",
    "/descendant::increase",
    "/descendant::open_auction/descendant::date",
    "/descendant::education/ancestor::person",
    "/descendant::bidder[increase]",
    "/descendant::bidder[date]",
    "/descendant::bidder[increase]/ancestor::open_auction",
    "/descendant::open_auction[bidder]/descendant::date",
    "/descendant::bidder/following::node()",
    "/descendant::open_auction/following::node()",
    "/descendant::person/preceding::node()",
    "/descendant::education/preceding::node()",
];

/// The adaptive benchmark's chained-descendant query (misleading
/// document) and the twig benchmark's two skewed twig queries, with a
/// pass weight each. The twig queries take microseconds and the chain
/// milliseconds; weighting the chain 4:1:1 puts the median latency
/// inside the chain's own distribution instead of on the edge between
/// the two.
const PLAN_SKEW_MIX: [(usize, &str, usize); 3] = [
    (0, "/descendant::a/descendant::b/descendant::node()", 4),
    (
        1,
        "/descendant::a[descendant::b]/descendant::c[descendant::d]",
        1,
    ),
    (1, "/descendant::a[child::b]/descendant::c[child::d]", 1),
];

/// How a document reaches the program.
pub enum Source {
    Xml(String),
    Encoded(Vec<u8>),
}

impl Source {
    pub fn bytes(&self) -> usize {
        match self {
            Source::Xml(s) => s.len(),
            Source::Encoded(b) => b.len(),
        }
    }
}

pub struct QuerySpec {
    /// Index of the document the query runs on.
    pub doc: usize,
    pub text: String,
    /// The reference engine's answer.
    pub reference: Fingerprint,
}

pub struct Inputs {
    pub sources: Vec<Source>,
    /// Node count of each document.
    pub nodes: Vec<usize>,
    /// Distinct queries.
    pub queries: Vec<QuerySpec>,
    /// One pass over the mix (indices into `queries`, repeats kept).
    pub mix: Vec<usize>,
    /// The closed local loop's order: seeded permutations of the mix,
    /// back to back, used cyclically.
    pub passes: Vec<usize>,
    /// The wire requests' order, used cyclically.
    pub stream: Vec<usize>,
    /// The engine under test, and its wire name.
    pub engine: Engine,
    pub wire_engine: &'static str,
    pub reference_name: &'static str,
    pub width: usize,
    /// The served workload: its closed loop is a wire client and its
    /// replies stream the result ids. Its texts are ad hoc, so in-process
    /// runs prepare each request. Otherwise the closed loop runs prepared
    /// queries (plans cached) in-process and wire replies are count-only.
    pub served: bool,
    /// Context tags for the direct `core` descendant/ancestor calls.
    pub core_tags: [&'static str; 2],
}

impl Inputs {
    /// Generates the named workload from `seed`.
    pub fn generate(name: &str, seed: u64) -> Option<Inputs> {
        match name {
            "xmark-local" => Some(xmark_local(seed)),
            "xmark-wire" => Some(xmark_wire(seed)),
            "plan-skew" => Some(plan_skew(seed)),
            _ => None,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{} docs, nodes {:?}, input {:.1} MB, {} distinct queries, mix pass {}, engine {}, reference {}, width {}",
            self.sources.len(),
            self.nodes,
            self.sources.iter().map(Source::bytes).sum::<usize>() as f64 / 1e6,
            self.queries.len(),
            self.mix.len(),
            self.wire_engine,
            self.reference_name,
            self.width,
        )
    }
}

fn fingerprint(session: &Session, text: &str, engine: Engine) -> Fingerprint {
    let out = session
        .prepare(text)
        .expect("benchmark query parses")
        .run(engine);
    Fingerprint::of(out.iter())
}

/// Seeded permutations of the mix, back to back.
fn permuted_passes(mix: &[usize], rng: &mut Rng, passes: usize) -> Vec<usize> {
    let mut stream = Vec::with_capacity(mix.len() * passes);
    for _ in 0..passes {
        let mut pass = mix.to_vec();
        rng.shuffle(&mut pass);
        stream.extend(pass);
    }
    stream
}

fn xmark_local(seed: u64) -> Inputs {
    let xml = generate_xml(XmarkConfig::new(40.0).with_seed(seed));
    let reference = Session::parse_xml(&xml).expect("generated XML parses");
    let mut queries: Vec<QuerySpec> = Vec::new();
    let mut mix = Vec::new();
    for text in XMARK_LOCAL_MIX {
        let idx = match queries.iter().position(|q| q.text == text) {
            Some(i) => i,
            None => {
                queries.push(QuerySpec {
                    doc: 0,
                    text: text.to_string(),
                    reference: fingerprint(&reference, text, Engine::auto()),
                });
                queries.len() - 1
            }
        };
        mix.push(idx);
    }
    let mut rng = Rng::new(seed);
    let passes = permuted_passes(&mix, &mut rng, 256);
    Inputs {
        nodes: vec![reference.doc().len()],
        sources: vec![Source::Xml(xml)],
        queries,
        mix,
        stream: passes.clone(),
        passes,
        engine: Engine::default(),
        wire_engine: "staircase",
        reference_name: "auto",
        width: nproc(),
        served: false,
        core_tags: ["profile", "increase"],
    }
}

/// Name-test templates over the document's own tag vocabulary: every
/// shape below over every grandparent/parent/child tag triple that
/// occurs, kept when it selects between 1 node and 1% of the nodes and
/// the engine under test touches at most 2% of the nodes for it. The
/// XMark schema is the same on every seed, so the template set (and its
/// cost profile) barely moves between seeds. Each template comes with
/// the node count the engine under test touched, in text order.
fn wire_templates(session: &Session) -> Vec<(QuerySpec, u64)> {
    let doc: &Doc = session.doc();
    let max_hits = doc.len() / 100;
    let max_touched = doc.len() as u64 / 50;
    let tag = |p: u32| (p != NO_PARENT).then(|| doc.tag_name(p)).flatten();
    let mut triples = BTreeSet::new();
    for p in doc.pres() {
        if doc.kind(p) != NodeKind::Element {
            continue;
        }
        if let (Some(b), Some(a)) = (tag(p), tag(doc.parent(p))) {
            triples.insert((tag(doc.parent(doc.parent(p))).unwrap_or(a), a, b));
        }
    }
    let mut texts = BTreeSet::new();
    for (g, a, b) in triples {
        texts.insert(format!("/descendant::{b}"));
        texts.insert(format!("/descendant::{a}/child::{b}"));
        texts.insert(format!("/descendant::{g}/descendant::{b}"));
        texts.insert(format!("/descendant::{b}/ancestor::{g}"));
        texts.insert(format!("/descendant::{a}[child::{b}]"));
        texts.insert(format!("/descendant::{g}/child::{a}/child::{b}"));
        texts.insert(format!("/descendant::{b}/parent::{a}"));
    }
    let mut out = Vec::new();
    for text in texts {
        let reference = fingerprint(session, &text, Engine::default());
        if reference.count == 0 || reference.count > max_hits {
            continue;
        }
        let tested = session
            .prepare(&text)
            .expect("template parses")
            .run(Engine::auto());
        let touched = tested.stats().total_touched();
        if touched > max_touched {
            continue;
        }
        out.push((
            QuerySpec {
                doc: 0,
                text,
                reference,
            },
            touched,
        ));
    }
    out
}

fn xmark_wire(seed: u64) -> Inputs {
    let doc = generate(XmarkConfig::new(8.0).with_seed(seed));
    let bytes = doc.to_bytes().to_vec();
    let reference = Session::new(doc);
    let mut rng = Rng::new(seed);
    let mut templates = wire_templates(&reference);
    assert!(
        templates.len() >= 10,
        "too few selective templates on this document"
    );
    // Popularity ranks cycle through the ten cost deciles (by touched
    // nodes), each decile in seeded order, so the Zipf head has the same
    // cost profile on every seed while the texts themselves change.
    templates.sort_by_key(|(_, touched)| *touched);
    let n = templates.len();
    let mut deciles: Vec<Vec<usize>> = (0..10)
        .map(|d| {
            let mut members: Vec<usize> = (d * n / 10..(d + 1) * n / 10).collect();
            rng.shuffle(&mut members);
            members
        })
        .collect();
    let mut popularity = Vec::with_capacity(n);
    while popularity.len() < n {
        for decile in &mut deciles {
            popularity.extend(decile.pop());
        }
    }
    let zipf = Zipf::new(n, 1.0);
    let stream = (0..20_000)
        .map(|_| popularity[zipf.draw(&mut rng)])
        .collect();
    let queries: Vec<QuerySpec> = templates.into_iter().map(|(q, _)| q).collect();
    let mix: Vec<usize> = (0..n).collect();
    let passes = permuted_passes(&mix, &mut rng, 64);
    Inputs {
        nodes: vec![reference.doc().len()],
        sources: vec![Source::Encoded(bytes)],
        queries,
        mix,
        passes,
        stream,
        engine: Engine::auto(),
        wire_engine: "auto",
        reference_name: "staircase",
        width: 1,
        served: true,
        core_tags: ["profile", "increase"],
    }
}

fn plan_skew(seed: u64) -> Inputs {
    let xmls = [
        generate_misleading_xml(MisleadConfig::new(10.0).with_seed(seed)),
        generate_skewed_xml(SkewConfig::new(4.0, 1.2).with_seed(seed)),
    ];
    let references: Vec<Session> = xmls
        .iter()
        .map(|x| Session::parse_xml(x).expect("generated XML parses"))
        .collect();
    let queries: Vec<QuerySpec> = PLAN_SKEW_MIX
        .iter()
        .map(|&(doc, text, _)| QuerySpec {
            doc,
            text: text.to_string(),
            reference: fingerprint(&references[doc], text, Engine::default()),
        })
        .collect();
    let mix: Vec<usize> = PLAN_SKEW_MIX
        .iter()
        .enumerate()
        .flat_map(|(i, &(_, _, weight))| std::iter::repeat_n(i, weight))
        .collect();
    let mut rng = Rng::new(seed);
    let passes = permuted_passes(&mix, &mut rng, 1024);
    Inputs {
        nodes: references.iter().map(|s| s.doc().len()).collect(),
        sources: xmls.into_iter().map(Source::Xml).collect(),
        queries,
        mix,
        stream: passes.clone(),
        passes,
        engine: Engine::auto(),
        wire_engine: "auto",
        reference_name: "staircase",
        width: 1,
        served: false,
        core_tags: ["a", "b"],
    }
}
