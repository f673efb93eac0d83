//! Byte-identity suite for the one-pass `/schedule` body.
//!
//! `schedule_response_body` writes its JSON straight into one `String`. The reference
//! here is the tree-based renderer it replaced: it builds the body as a [`Json`] tree
//! and renders that. The two must agree byte for byte on both outcomes, over every
//! gallery net, every net family of the `schedule_cold` benchmark workload, seeded
//! random free-choice nets and nets whose names need escaping; and `json::parse` must
//! read a large streamed body back into the reference tree.

use fcpn_atm::{AtmConfig, AtmModel};
use fcpn_petri::{gallery, net_fingerprint, NetBuilder, PetriNet, PlaceId, TransitionId};
use fcpn_qss::{
    quasi_static_schedule, ComponentDiagnostic, ComponentFailure, NotSchedulableReport, QssOptions,
    QssOutcome,
};
use fcpn_serve::json::{parse, Json};
use fcpn_serve::schedule_response_body;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn names(net: &PetriNet, transitions: &[TransitionId]) -> Json {
    Json::arr(
        transitions
            .iter()
            .map(|&t| Json::from(net.transition_name(t))),
    )
}

/// The `/schedule` body as a JSON tree.
fn reference_tree(net: &PetriNet, outcome: &QssOutcome) -> Json {
    let mut pairs = vec![
        ("net".to_string(), Json::from(net.name())),
        (
            "fingerprint".to_string(),
            Json::from(format!("0x{:032x}", net_fingerprint(net))),
        ),
        (
            "schedulable".to_string(),
            Json::from(outcome.is_schedulable()),
        ),
    ];
    match outcome {
        QssOutcome::Schedulable(schedule) => {
            pairs.push((
                "components_examined".to_string(),
                Json::from(schedule.cycle_count()),
            ));
            pairs.push((
                "cycles".to_string(),
                Json::arr(schedule.cycles.iter().map(|cycle| {
                    Json::obj([
                        ("allocation", Json::from(cycle.allocation.describe(net))),
                        ("sequence", names(net, &cycle.sequence)),
                        (
                            "counts",
                            Json::arr(cycle.counts.iter().map(|&c| Json::from(c))),
                        ),
                        (
                            "buffer_bounds",
                            Json::arr(cycle.buffer_bounds.iter().map(|&b| Json::from(b))),
                        ),
                    ])
                })),
            ));
        }
        QssOutcome::NotSchedulable(report) => {
            pairs.push((
                "components_examined".to_string(),
                Json::from(report.components_examined),
            ));
            pairs.push((
                "failures".to_string(),
                Json::arr(report.failures.iter().map(|failure| {
                    Json::obj([
                        ("allocation", Json::from(failure.allocation.as_str())),
                        ("transitions", names(net, &failure.transitions)),
                        ("reason", failure_json(net, &failure.failure)),
                    ])
                })),
            ));
        }
    }
    Json::Obj(pairs)
}

fn failure_json(net: &PetriNet, failure: &ComponentFailure) -> Json {
    match failure {
        ComponentFailure::Inconsistent { uncovered } => Json::obj([
            ("kind", Json::from("inconsistent")),
            ("uncovered", names(net, uncovered)),
        ]),
        ComponentFailure::SourceNotCovered { source } => Json::obj([
            ("kind", Json::from("source-not-covered")),
            ("source", Json::from(net.transition_name(*source))),
        ]),
        ComponentFailure::Deadlock { remaining, fired } => Json::obj([
            ("kind", Json::from("deadlock")),
            (
                "remaining",
                Json::arr(remaining.iter().map(|&(t, owed)| {
                    Json::obj([
                        ("transition", Json::from(net.transition_name(t))),
                        ("owed", Json::from(owed)),
                    ])
                })),
            ),
            ("fired", names(net, fired)),
        ]),
    }
}

/// Which outcomes and failure kinds a group of nets reached, so each group can assert
/// that it exercised what it claims to.
#[derive(Debug, Default)]
struct Coverage {
    schedulable: usize,
    not_schedulable: usize,
    failure_kinds: Vec<&'static str>,
}

impl Coverage {
    /// Schedules `net` and requires the streamed body to equal the reference render.
    /// Nets the scheduler refuses (not free-choice) have no `/schedule` body.
    fn check(&mut self, net: &PetriNet) {
        let Ok(outcome) = quasi_static_schedule(net, &QssOptions::default()) else {
            return;
        };
        match &outcome {
            QssOutcome::Schedulable(_) => self.schedulable += 1,
            QssOutcome::NotSchedulable(report) => {
                self.not_schedulable += 1;
                for failure in &report.failures {
                    let kind = match failure.failure {
                        ComponentFailure::Inconsistent { .. } => "inconsistent",
                        ComponentFailure::SourceNotCovered { .. } => "source-not-covered",
                        ComponentFailure::Deadlock { .. } => "deadlock",
                    };
                    if !self.failure_kinds.contains(&kind) {
                        self.failure_kinds.push(kind);
                    }
                }
            }
        }
        let streamed = schedule_response_body(net, &outcome);
        let reference = reference_tree(net, &outcome).render();
        assert_same_bytes(net, &streamed, &reference);
    }
}

fn assert_same_bytes(net: &PetriNet, streamed: &str, reference: &str) {
    if streamed == reference {
        return;
    }
    let at = streamed
        .bytes()
        .zip(reference.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(streamed.len().min(reference.len()));
    let window = |s: &str| {
        let bytes = s.as_bytes();
        String::from_utf8_lossy(&bytes[at.saturating_sub(40)..(at + 40).min(bytes.len())])
            .into_owned()
    };
    panic!(
        "net {:?}: bodies differ at byte {at} (lengths {} and {})\n streamed: {}\nreference: {}",
        net.name(),
        streamed.len(),
        reference.len(),
        window(streamed),
        window(reference)
    );
}

fn atm(queues: usize) -> PetriNet {
    AtmModel::build(AtmConfig { queues })
        .expect("the ATM model builds")
        .net
}

/// [`gallery::choice_chain`] with every name passed through `name`.
fn chain(n: usize, name: impl Fn(String) -> String) -> PetriNet {
    let mut b = NetBuilder::new(name(format!("choice-chain-{n}")));
    let source = b.transition(name("src".into()));
    let mut upstream = b.place(name("c0".into()), 0);
    b.arc_t_p(source, upstream, 1).expect("arc");
    for i in 0..n {
        let a = b.transition(name(format!("a{i}")));
        let c = b.transition(name(format!("b{i}")));
        b.arc_p_t(upstream, a, 1).expect("arc");
        b.arc_p_t(upstream, c, 1).expect("arc");
        let join = b.place(name(format!("j{i}")), 0);
        b.arc_t_p(a, join, 1).expect("arc");
        b.arc_t_p(c, join, 1).expect("arc");
        let next = b.transition(name(format!("m{i}")));
        b.arc_p_t(join, next, 1).expect("arc");
        let out = b.place(name(format!("c{}", i + 1)), 0);
        b.arc_t_p(next, out, 1).expect("arc");
        upstream = out;
    }
    let sink = b.transition(name("sink".into()));
    b.arc_p_t(upstream, sink, 1).expect("arc");
    b.build().expect("choice chain is a valid net")
}

/// Figure 3b with every name passed through `name`: both branches of the choice rejoin
/// at one transition, so each component is inconsistent.
fn rejoin(name: impl Fn(&str) -> String) -> PetriNet {
    let mut b = NetBuilder::new(name("figure3b"));
    let t1 = b.transition(name("t1"));
    let p1 = b.place(name("p1"), 0);
    let t2 = b.transition(name("t2"));
    let t3 = b.transition(name("t3"));
    let p2 = b.place(name("p2"), 0);
    let p3 = b.place(name("p3"), 0);
    let t4 = b.transition(name("t4"));
    b.arc_t_p(t1, p1, 1).expect("arc");
    b.arc_p_t(p1, t2, 1).expect("arc");
    b.arc_p_t(p1, t3, 1).expect("arc");
    b.arc_t_p(t2, p2, 1).expect("arc");
    b.arc_t_p(t3, p3, 1).expect("arc");
    b.arc_p_t(p2, t4, 1).expect("arc");
    b.arc_p_t(p3, t4, 1).expect("arc");
    b.build().expect("valid net")
}

/// A random free-choice net: a source feeding a tree of choices whose branches produce
/// with random weights into drains. A level sometimes drains the first two branches of
/// each of its choices into one transition (figure 3b), which makes its components
/// inconsistent, and a drain sometimes closes an unmarked ring through a second
/// transition, which deadlocks.
fn random_free_choice(rng: &mut StdRng) -> PetriNet {
    let depth = rng.gen_range(1..4usize);
    let mut b = NetBuilder::new("random-fc");
    let source = b.transition("src");
    let root = b.place("root", rng.gen_range(0..2u64));
    b.arc_t_p(source, root, 1).expect("arc");
    let mut frontier: Vec<PlaceId> = vec![root];
    let mut counter = 0usize;
    for level in 0..depth {
        let branches = rng.gen_range(2..4usize);
        let weight = rng.gen_range(1..4u64);
        let join = rng
            .gen_bool(0.2)
            .then(|| b.transition(format!("join{level}")));
        let mut next = Vec::new();
        for place in frontier {
            for branch in 0..branches {
                counter += 1;
                let t = b.transition(format!("t{level}_{branch}_{counter}"));
                b.arc_p_t(place, t, 1).expect("arc");
                let out = b.place(format!("p{level}_{branch}_{counter}"), 0);
                b.arc_t_p(t, out, weight).expect("arc");
                let drain = match join {
                    Some(join) if branch < 2 => join,
                    _ => b.transition(format!("d{level}_{branch}_{counter}")),
                };
                b.arc_p_t(out, drain, 1).expect("arc");
                if rng.gen_bool(0.1) {
                    let ring = b.place(format!("r{counter}"), 0);
                    let back = b.place(format!("s{counter}"), 0);
                    let spin = b.transition(format!("spin{counter}"));
                    b.arc_t_p(drain, ring, 1).expect("arc");
                    b.arc_p_t(ring, spin, 1).expect("arc");
                    b.arc_t_p(spin, back, 1).expect("arc");
                    b.arc_p_t(back, drain, 1).expect("arc");
                } else if level + 1 < depth && rng.gen_bool(0.5) {
                    let cont = b.place(format!("c{level}_{branch}_{counter}"), 0);
                    b.arc_t_p(drain, cont, 1).expect("arc");
                    next.push(cont);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    b.build().expect("random free-choice net is valid")
}

#[test]
fn gallery_bodies_match_the_reference() {
    let mut coverage = Coverage::default();
    for net in [
        gallery::figure1a(),
        gallery::figure1b(),
        gallery::figure2(),
        gallery::figure3a(),
        gallery::figure3b(),
        gallery::figure4(),
        gallery::figure5(),
        gallery::figure7(),
        gallery::choice_chain(3),
        gallery::marked_ring(6, 3),
        gallery::cycle_bank(5),
        gallery::memory_bomb(3),
    ] {
        coverage.check(&net);
    }
    assert!(
        coverage.schedulable > 0 && coverage.not_schedulable > 0,
        "{coverage:?}"
    );
}

#[test]
fn schedule_cold_families_match_the_reference() {
    let mut coverage = Coverage::default();
    let figures = [
        gallery::figure2(),
        gallery::figure3a(),
        gallery::figure3b(),
        gallery::figure4(),
        gallery::figure5(),
        gallery::figure7(),
    ];
    let chains = (4..=12).map(gallery::choice_chain);
    for net in figures.into_iter().chain(chains) {
        coverage.check(&net);
    }
    coverage.check(&atm(2));
    coverage.check(&atm(4));
    assert_eq!(
        coverage.not_schedulable, 2,
        "figures 3b and 7: {coverage:?}"
    );
}

#[test]
fn random_free_choice_bodies_match_the_reference() {
    let mut coverage = Coverage::default();
    for seed in 0..64 {
        coverage.check(&random_free_choice(&mut StdRng::seed_from_u64(seed)));
    }
    assert!(coverage.schedulable > 0, "{coverage:?}");
    for kind in ["inconsistent", "deadlock"] {
        assert!(coverage.failure_kinds.contains(&kind), "{coverage:?}");
    }
}

#[test]
fn names_that_need_escaping_match_the_reference() {
    let hostile = [
        "\"",
        "\\",
        "\n",
        "\u{1}",
        "ü→τ",
        "a\"b\\c\nd\te\r\u{1f}\u{7f}",
    ];
    let mut coverage = Coverage::default();
    for text in hostile {
        coverage.check(&chain(3, |name| format!("{name}{text}")));
        coverage.check(&chain(2, |name| format!("{text}{name}{text}")));
        coverage.check(&rejoin(|name| format!("{text}{name}")));
    }
    assert_eq!(
        (coverage.schedulable, coverage.not_schedulable),
        (12, 6),
        "{coverage:?}"
    );
}

#[test]
fn every_failure_kind_matches_the_reference() {
    // The scheduler never reports `SourceNotCovered` (a consistent component covers its
    // sources), so this report is built by hand to reach every failure branch.
    let net = rejoin(|name| format!("\"{name}\\\u{1}ü"));
    let t = |name: &str| {
        net.transition_by_name(&format!("\"{name}\\\u{1}ü"))
            .expect("named transition")
    };
    let diagnostic = |failure| ComponentDiagnostic {
        allocation: "\"p1\\\u{1}ü->\"t2\\\u{1}ü".to_string(),
        transitions: vec![t("t1"), t("t2"), t("t4")],
        failure,
    };
    let outcome = QssOutcome::NotSchedulable(NotSchedulableReport {
        components_examined: 3,
        failures: vec![
            diagnostic(ComponentFailure::Inconsistent {
                uncovered: vec![t("t4")],
            }),
            diagnostic(ComponentFailure::SourceNotCovered { source: t("t1") }),
            diagnostic(ComponentFailure::Deadlock {
                remaining: vec![(t("t2"), 2), (t("t4"), u64::MAX)],
                fired: vec![t("t1"), t("t1")],
            }),
        ],
    });
    let streamed = schedule_response_body(&net, &outcome);
    assert_same_bytes(&net, &streamed, &reference_tree(&net, &outcome).render());
}

#[test]
fn a_large_streamed_body_parses_back_into_the_reference_tree() {
    // choice_chain(11) with a benchmark-style suffix on every name, non-ASCII on the
    // `a` branches: 2,048 cycles in a 1.8 MB body. A parser that is quadratic in the
    // body length does not finish this in minutes.
    let net = chain(11, |name| match name.strip_prefix('a') {
        Some(index) => format!("ä{index}_00c0ffee00"),
        None => format!("{name}_00c0ffee00"),
    });
    let outcome = quasi_static_schedule(&net, &QssOptions::default()).expect("free-choice");
    let body = schedule_response_body(&net, &outcome);
    assert!(body.len() > 1_500_000, "{} bytes", body.len());
    assert!(body.contains("\"ä10_00c0ffee00\""));
    assert_eq!(
        parse(&body).expect("valid JSON"),
        reference_tree(&net, &outcome)
    );
}
