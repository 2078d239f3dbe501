//! The traced run: per-layer metrics, timed around calls into each
//! crate's public functions, with every call recorded as a span.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use staircase_accel::{Context, Doc};
use staircase_core::{ancestor, descendant, Variant};
use staircase_xml::{Event, PullParser};
use staircase_xpath::{Budget, Engine, Query, QueryOutput, Session};

use crate::run::{closed_loop, open_loop, prepare_all, server_stat, setup, Closed, LADDER_QPS};
use crate::trace::{span, Tracer};
use crate::util::{median, ms_since, nproc, percentile, sorted};
use crate::workloads::{Inputs, Source};
use crate::Report;

/// Operators whose estimate-over-observed cost ratio is reported.
pub const QERROR_OPS: [&str; 6] = [
    "staircase",
    "fragment",
    "twig",
    "sql",
    "horiz-scan",
    "structural",
];

/// Median wall time of `reps` calls, in ms.
fn timed_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            ms_since(t0)
        })
        .collect();
    median(&samples)
}

/// The operator family of a rendered `StepTrace::op`.
fn op_family(op: &str) -> &str {
    let end = op.find(['(', '[', ' ']).unwrap_or(op.len());
    &op[..end]
}

/// Runs one pass over the mix; returns the outputs.
fn mix_pass(
    inputs: &Inputs,
    prepared: &[Query<'_>],
    run: impl Fn(&Query<'_>) -> QueryOutput,
) -> Vec<QueryOutput> {
    inputs.mix.iter().map(|&qi| run(&prepared[qi])).collect()
}

/// Median time of `a` over median time of `b`, the two called in turn
/// `reps` times each so that drift in the machine's speed hits both.
fn paired_ratio<A, B>(reps: usize, mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> f64 {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        ta.push(timed_ms(1, &mut a));
        tb.push(timed_ms(1, &mut b));
    }
    median(&ta) / median(&tb)
}

/// One mix pass on `engine`, as a closure for [`paired_ratio`].
fn pass<'a>(
    inputs: &'a Inputs,
    prepared: &'a [Query<'_>],
    engine: Engine,
) -> impl FnMut() -> usize + 'a {
    move || mix_pass(inputs, prepared, |q| q.run(engine)).len()
}

/// `xml` and `accel`: parse, encode, decode and validate every document.
fn ingest_layers(inputs: &Inputs, tr: Option<&Tracer>, report: &mut Report) {
    let (mut pull_ms, mut from_xml_ms, mut from_bytes_ms, mut validate_ms) = (0.0, 0.0, 0.0, 0.0);
    let mut xml_bytes = 0usize;
    for src in &inputs.sources {
        let xml = match src {
            Source::Xml(xml) => xml.clone(),
            Source::Encoded(bytes) => Doc::from_bytes(bytes)
                .expect("benchmark encoding decodes")
                .to_document()
                .to_xml(),
        };
        xml_bytes += xml.len();
        pull_ms += timed_ms(3, || {
            span(tr, "xml.pull", 0, || {
                let mut parser = PullParser::new(&xml);
                let mut events = 0usize;
                while !matches!(
                    parser.next_event().expect("generated XML is well-formed"),
                    Event::Eof
                ) {
                    events += 1;
                }
                events
            })
        });
        from_xml_ms += timed_ms(3, || span(tr, "accel.from_xml", 0, || Doc::from_xml(&xml)));
        let doc = Doc::from_xml(&xml).expect("generated XML parses");
        let bytes = doc.to_bytes();
        from_bytes_ms += timed_ms(3, || {
            span(tr, "accel.from_bytes", 0, || Doc::from_bytes(&bytes))
        });
        validate_ms += timed_ms(3, || span(tr, "accel.validate", 0, || doc.validate()));
    }
    report.add(
        "xml.pull_mb_s",
        xml_bytes as f64 / 1e6 / (pull_ms / 1e3),
        "MB/s",
    );
    report.add("accel.from_xml_ms", from_xml_ms, "ms");
    report.add("accel.encode_ms", from_xml_ms - pull_ms, "ms");
    report.add("accel.from_bytes_ms", from_bytes_ms, "ms");
    report.add("accel.validate_ms", validate_ms, "ms");
}

/// `xpath`: per-request prepare and plan times, exact work counts per
/// mix pass, re-plans and cost-model error.
fn xpath_layers(
    inputs: &Inputs,
    sessions: &[Arc<Session>],
    prepared: &[Query<'_>],
    tr: Option<&Tracer>,
    report: &mut Report,
) {
    let requests = inputs.stream.len().min(2000);
    let (mut prepare_us, mut plan_us) = (Vec::new(), Vec::new());
    for (i, &qi) in inputs.stream[..requests].iter().enumerate() {
        let q = &inputs.queries[qi];
        let t0 = Instant::now();
        let fresh = span(tr, "xpath.prepare", i as u64, || {
            sessions[q.doc].prepare(&q.text)
        })
        .expect("benchmark query parses");
        prepare_us.push(ms_since(t0) * 1e3);
        let t0 = Instant::now();
        black_box(span(tr, "xpath.plan", i as u64, || {
            fresh.explain(inputs.engine)
        }));
        plan_us.push(ms_since(t0) * 1e3);
    }
    report.add("xpath.prepare_us", median(&prepare_us), "us");
    report.add("xpath.plan_us", median(&plan_us), "us");

    let outs = mix_pass(inputs, prepared, |q| {
        span(tr, "xpath.run", 0, || q.run(inputs.engine))
    });
    let steps = || outs.iter().flat_map(|o| o.stats().steps.iter());
    report.add(
        "xpath.touched",
        steps().map(|s| s.nodes_touched).sum::<u64>() as f64,
        "count",
    );
    report.add(
        "xpath.seeks",
        steps().map(|s| s.seeks).sum::<u64>() as f64,
        "count",
    );
    let mut ratios: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in steps() {
        if s.observed_cost() > 0.0 {
            ratios
                .entry(op_family(&s.op))
                .or_default()
                .push(s.est_cost / s.observed_cost());
        }
    }
    for op in QERROR_OPS {
        // 0 marks an operator that did not run on this workload.
        let r = ratios.get(op).cloned().unwrap_or_default();
        let worst = r.iter().map(|&x| x.max(1.0 / x)).fold(0.0, f64::max);
        report.add(
            format!("xpath.qerror.{op}.p50"),
            if r.is_empty() { 0.0 } else { median(&r) },
            "ratio",
        );
        report.add(format!("xpath.qerror.{op}.max"), worst, "ratio");
    }
    println!(
        "executed operators: {:?}",
        ratios
            .iter()
            .map(|(k, v)| (*k, v.len()))
            .collect::<Vec<_>>()
    );

    let adaptive = mix_pass(inputs, prepared, |q| {
        span(tr, "xpath.run", 0, || q.run(Engine::adaptive()))
    });
    let replans = adaptive
        .iter()
        .flat_map(|o| o.stats().steps.iter())
        .filter(|s| s.replanned)
        .count();
    report.add("xpath.replans", replans as f64, "count");
    report.add(
        "xpath.auto_over_adaptive",
        paired_ratio(
            5,
            pass(inputs, prepared, Engine::auto()),
            pass(inputs, prepared, Engine::adaptive()),
        ),
        "ratio",
    );
}

/// `core`: direct kernel calls, pool width and the governor's cost.
fn core_layers(
    inputs: &Inputs,
    sessions: &[Arc<Session>],
    prepared: &[Query<'_>],
    tr: Option<&Tracer>,
    report: &mut Report,
) {
    let doc = sessions[0].doc();
    let context = |tag: &str| {
        Context::from_sorted(
            doc.tag_id(tag)
                .map_or_else(Vec::new, |t| doc.elements_with_tag(t)),
        )
    };
    let (desc_ctx, anc_ctx) = (context(inputs.core_tags[0]), context(inputs.core_tags[1]));
    let desc_ms = timed_ms(5, || {
        span(tr, "core.descendant", 0, || {
            descendant(doc, &desc_ctx, Variant::default())
        })
    });
    let anc_ms = timed_ms(5, || {
        span(tr, "core.ancestor", 0, || {
            ancestor(doc, &anc_ctx, Variant::default())
        })
    });
    report.add("core.desc_ms", desc_ms, "ms");
    report.add("core.anc_ms", anc_ms, "ms");

    // The same documents at width 1 and width nproc, fresh sessions.
    let at_width = |w: usize| -> Vec<Arc<Session>> {
        sessions
            .iter()
            .map(|s| Arc::new(Session::new(s.doc().clone()).with_threads(w)))
            .collect()
    };
    let (narrow, wide) = (at_width(1), at_width(nproc()));
    let (narrow_q, wide_q) = (prepare_all(inputs, &narrow), prepare_all(inputs, &wide));
    // One untimed pass each builds the fresh sessions' lazy structures.
    paired_ratio(
        1,
        pass(inputs, &narrow_q, inputs.engine),
        pass(inputs, &wide_q, inputs.engine),
    );
    report.add(
        "core.pool_speedup",
        paired_ratio(
            5,
            pass(inputs, &narrow_q, inputs.engine),
            pass(inputs, &wide_q, inputs.engine),
        ),
        "ratio",
    );

    let slack = || Arc::new(Budget::new().with_deadline_in(Duration::from_secs(3600)));
    let governed = || {
        mix_pass(inputs, prepared, |q| {
            q.run_governed(inputs.engine, slack())
                .expect("slack budget never trips")
        })
        .len()
    };
    report.add(
        "core.governor_overhead",
        paired_ratio(5, governed, pass(inputs, prepared, inputs.engine)),
        "ratio",
    );
}

pub fn traced(inputs: &Inputs, workload: &str, seed: u64, seconds: f64) -> Report {
    let tracer = Tracer::new();
    let tr = Some(&tracer);
    let mut report = Report::default();
    ingest_layers(inputs, tr, &mut report);

    let ready = span(tr, "bench.setup", 0, || setup(inputs, tr));
    let prepared = prepare_all(inputs, &ready.sessions);
    xpath_layers(inputs, &ready.sessions, &prepared, tr, &mut report);
    core_layers(inputs, &ready.sessions, &prepared, tr, &mut report);

    // Tracing overhead: the same closed loop without and with spans, in
    // alternating slices.
    let (mut plain, mut traced) = (Closed::default(), Closed::default());
    for slice in 0..10 {
        let (into, tracer) = if slice % 2 == 0 {
            (&mut plain, None)
        } else {
            (&mut traced, tr)
        };
        into.absorb(closed_loop(
            inputs,
            &ready.sessions,
            &prepared,
            0.05 * seconds,
            tracer,
        ));
    }
    let p50 = |lat: &[f64]| percentile(&sorted(lat.to_vec()), 50.0);
    report.add("xpath.run_p50_ms", p50(&plain.lat_ms), "ms");
    report.add(
        "trace.overhead_ms",
        p50(&traced.lat_ms) - p50(&plain.lat_ms),
        "ms",
    );

    // `server`: wire latency over local latency for the same text, and
    // the server's own counters across the base-rate phase.
    let addrs = ready.addrs();
    let counters = || -> [u64; 3] {
        ["batches", "batched_queries", "busy_rejections"]
            .map(|key| addrs.iter().map(|&a| server_stat(a, key)).sum())
    };
    let before = counters();
    let wire = open_loop(inputs, &addrs, LADDER_QPS[0], 0.4 * seconds, tr);
    let after = counters();
    let [batches, batched, busy] = [0, 1, 2].map(|k| after[k] - before[k]);
    let local_median: Vec<Option<f64>> = plain
        .per_query
        .iter()
        .map(|l| (!l.is_empty()).then(|| median(l)))
        .collect();
    let overhead: Vec<f64> = wire
        .answered
        .iter()
        .filter_map(|&(qi, ms)| local_median[qi].map(|local| ms - local))
        .collect();
    report.add("server.overhead_ms", median(&overhead), "ms");
    report.add(
        "server.avg_batch",
        batched as f64 / batches.max(1) as f64,
        "count",
    );
    report.add(
        "server.busy_frac",
        busy as f64 / wire.attempted.max(1) as f64,
        "ratio",
    );
    let lags = sorted(wire.sent.iter().map(|s| s.2).collect());
    report.add("server.gen_lag_ms", percentile(&lags, 95.0), "ms");
    let mut seen = std::collections::HashSet::new();
    let repeats = wire.sent.iter().filter(|s| !seen.insert(s.1)).count();
    report.add(
        "xpath.text_repeat_share",
        repeats as f64 / wire.sent.len().max(1) as f64,
        "ratio",
    );

    drop(prepared);
    ready.shutdown();

    for (layer, ms) in tracer.self_ms_by_layer() {
        println!("self time {layer:<8} {ms:>12.3} ms");
    }
    let path = PathBuf::from("perfbench/traces").join(format!("{workload}-seed{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(n) => println!("{n} spans written to {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }

    report.attempted = plain.attempted + traced.attempted + wire.attempted;
    report.wrong = plain.wrong + traced.wrong + wire.wrong + wire.errors;
    report.failed = plain.wrong + traced.wrong + wire.failed();
    report
}
