//! Seeded input generators: nets, LTS texts and ATM traffic sizes.
//!
//! Every workload draws its requests from a *deck*: a fixed multiset of input kinds
//! that is reshuffled for every round with the workload seed. A request is a pure
//! function of `(seed, index)`, so the untraced run, the oracle and the traced replay
//! regenerate exactly the same inputs in the same order without storing them, and
//! every run of a workload carries the same mix of work whatever its seed. Inside a
//! round the seed also picks the renaming suffix, so every request of a cold workload
//! has its own fingerprint and misses the daemon's cache.

use fcpn_atm::{AtmConfig, AtmModel};
use fcpn_petri::analysis::ReachabilityOptions;
use fcpn_petri::io::{parse_net, to_text};
use fcpn_petri::statespace::StateSpace;
use fcpn_petri::synthesis::Lts;
use fcpn_petri::{gallery, PetriNet};
use fcpn_qss::{allocation_iter_gray, AllocationOptions};
use fcpn_serve::{HttpLimits, RequestLimits};
use std::collections::HashMap;
use std::sync::OnceLock;

/// SplitMix64: a tiny, fast, seedable generator (the workspace's `rand` shim is
/// not needed for shuffles and suffixes).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Mixes a seed with a stream tag and an index into an independent sub-seed.
pub fn sub_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut rng = SplitMix::new(seed ^ tag.rotate_left(17) ^ index.rotate_left(41));
    rng.next_u64()
}

/// A source of a request body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    Figure2,
    Figure3a,
    Figure3b,
    Figure4,
    Figure5,
    Figure7,
    ChoiceChain(usize),
    MarkedRing(usize, u64),
    CycleBank(usize),
    Atm(usize),
}

impl Family {
    pub fn label(self) -> String {
        match self {
            Family::Figure2 => "figure2".into(),
            Family::Figure3a => "figure3a".into(),
            Family::Figure3b => "figure3b".into(),
            Family::Figure4 => "figure4".into(),
            Family::Figure5 => "figure5".into(),
            Family::Figure7 => "figure7".into(),
            Family::ChoiceChain(n) => format!("choice_chain({n})"),
            Family::MarkedRing(n, k) => format!("marked_ring({n},{k})"),
            Family::CycleBank(n) => format!("cycle_bank({n})"),
            Family::Atm(q) => format!("atm(queues={q})"),
        }
    }

    pub fn net(self) -> PetriNet {
        match self {
            Family::Figure2 => gallery::figure2(),
            Family::Figure3a => gallery::figure3a(),
            Family::Figure3b => gallery::figure3b(),
            Family::Figure4 => gallery::figure4(),
            Family::Figure5 => gallery::figure5(),
            Family::Figure7 => gallery::figure7(),
            Family::ChoiceChain(n) => gallery::choice_chain(n),
            Family::MarkedRing(n, k) => gallery::marked_ring(n, k),
            Family::CycleBank(n) => gallery::cycle_bank(n),
            Family::Atm(queues) => {
                AtmModel::build(AtmConfig { queues })
                    .expect("the ATM model builds")
                    .net
            }
        }
    }
}

/// What a deck entry asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Schedule,
    CodegenC,
    CodegenRust,
    /// `/analyze` with all four checks; `par` asks for `threads=2`.
    Analyze {
        par: bool,
    },
    /// `/synthesize` of the complete reachability LTS of the family's net.
    Synthesize,
}

/// One deck entry: a request kind over an input family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Card {
    pub kind: Kind,
    pub family: Family,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Input {
    pub index: usize,
    pub card: Card,
    pub path_and_query: String,
    pub body: String,
}

impl Input {
    /// The raw HTTP/1.1 request bytes the load client sends for this input.
    pub fn http_bytes(&self) -> Vec<u8> {
        let mut bytes = format!(
            "POST {} HTTP/1.1\r\nHost: fcpn\r\nContent-Length: {}\r\n\r\n",
            self.path_and_query,
            self.body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }
}

/// The `/analyze` state budget: large enough for every bounded family in the deck to
/// be explored completely, small enough to truncate the unbounded choice chains.
pub const ANALYZE_MAX_MARKINGS: usize = 60_000;

fn path_and_query(kind: Kind) -> String {
    match kind {
        Kind::Schedule => "/schedule".into(),
        Kind::CodegenC => "/codegen".into(),
        Kind::CodegenRust => "/codegen?lang=rust".into(),
        Kind::Analyze { par: false } => format!("/analyze?max_markings={ANALYZE_MAX_MARKINGS}"),
        Kind::Analyze { par: true } => {
            format!("/analyze?max_markings={ANALYZE_MAX_MARKINGS}&threads=2")
        }
        Kind::Synthesize => "/synthesize".into(),
    }
}

/// A seeded, reshuffled-per-round deck of cards.
#[derive(Debug, Clone)]
pub struct Deck {
    pub seed: u64,
    pub cards: Vec<Card>,
    /// `false` for a hot working set: every round reuses the same bodies.
    pub rename: bool,
    /// The working set's bodies, built on first use.
    hot: OnceLock<HashMap<Card, String>>,
}

impl Deck {
    fn card_at(&self, index: usize) -> Card {
        let round = index / self.cards.len();
        if !self.rename && round == 0 {
            // A working set's first round is its warm-up: sent in deck order, so
            // every seed warms the daemon with the same sequence of allocations.
            return self.cards[index];
        }
        let mut order: Vec<usize> = (0..self.cards.len()).collect();
        SplitMix::new(sub_seed(self.seed, 1, round as u64)).shuffle(&mut order);
        self.cards[order[index % self.cards.len()]]
    }

    /// The same deck under another seed.
    pub fn reseeded(&self, seed: u64) -> Deck {
        Deck {
            seed,
            cards: self.cards.clone(),
            rename: self.rename,
            hot: OnceLock::new(),
        }
    }

    /// The request at position `index` of the workload's stream.
    pub fn input(&self, index: usize) -> Input {
        let card = self.card_at(index);
        let body = if self.rename {
            let suffix = format!("_{:010x}", sub_seed(self.seed, 2, index as u64) >> 24);
            renamed(card, &suffix)
        } else {
            // The working set: a card always carries the same body, renamed once with
            // the seed so two seeds warm two different sets, and built once per
            // process so the client spends no time on it inside the timed window.
            let bodies = self.hot.get_or_init(|| {
                self.cards
                    .iter()
                    .enumerate()
                    .map(|(slot, &card)| {
                        let suffix = format!("_w{:09x}", sub_seed(self.seed, 3, slot as u64) >> 28);
                        (card, renamed(card, &suffix))
                    })
                    .collect()
            });
            bodies[&card].clone()
        };
        Input {
            index,
            card,
            path_and_query: path_and_query(card.kind),
            body,
        }
    }

    /// Checks every card of the deck against the daemon's default request and HTTP
    /// limits, so that no request is refused for its size.
    pub fn check_limits(&self) -> Result<(), String> {
        let http = HttpLimits::default();
        let limits = RequestLimits::default();
        // The longest suffix `input` can append (`_` and 10 hex digits).
        const WORST_SUFFIX: &str = "_ffffffffff";
        for card in &self.cards {
            let text = renamed(*card, WORST_SUFFIX);
            if text.len() > http.max_body_bytes {
                return Err(format!(
                    "{} text of {} bytes exceeds the {} byte body cap",
                    card.family.label(),
                    text.len(),
                    http.max_body_bytes
                ));
            }
            if matches!(
                card.kind,
                Kind::Schedule | Kind::CodegenC | Kind::CodegenRust
            ) {
                let net = parse_net(&text).map_err(|e| e.to_string())?;
                let total = allocation_iter_gray(&net, AllocationOptions::default())
                    .map_err(|e| e.to_string())?
                    .total();
                if total > limits.max_allocations {
                    return Err(format!(
                        "{} has {total} T-allocations, over the cap of {}",
                        card.family.label(),
                        limits.max_allocations
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The un-renamed body of a card, built once per process.
pub fn base_text(card: Card) -> &'static str {
    static TEXTS: OnceLock<std::sync::Mutex<HashMap<(Family, bool), &'static str>>> =
        OnceLock::new();
    let lts = card.kind == Kind::Synthesize;
    let map = TEXTS.get_or_init(Default::default);
    if let Some(text) = map
        .lock()
        .expect("no thread panics while building a text")
        .get(&(card.family, lts))
    {
        return text;
    }
    let net = card.family.net();
    let text = if lts {
        let space = StateSpace::explore(&net, ReachabilityOptions::default());
        assert!(
            space.is_complete(),
            "{} explores completely",
            card.family.label()
        );
        Lts::from_statespace(&net, &space)
            .expect("a complete space converts")
            .to_text()
    } else {
        to_text(&net)
    };
    let text: &'static str = Box::leak(text.into_boxed_str());
    map.lock()
        .expect("no thread panics while building a text")
        .insert((card.family, lts), text);
    text
}

/// The card's body with `suffix` appended to every name. Suffixes have a fixed width,
/// so every seed sends the same number of bytes.
fn renamed(card: Card, suffix: &str) -> String {
    match card.kind {
        Kind::Synthesize => rename_lts(base_text(card), suffix),
        _ => rename_net(base_text(card), suffix),
    }
}

/// Appends `suffix` to the net name and every place and transition name.
pub fn rename_net(text: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some(keyword @ ("net" | "place" | "transition")) => {
                out.push_str(keyword);
                if let Some(name) = parts.next() {
                    out.push(' ');
                    out.push_str(name);
                    out.push_str(suffix);
                }
                for rest in parts {
                    out.push(' ');
                    out.push_str(rest);
                }
            }
            Some("arc") => {
                out.push_str("arc");
                for (i, part) in parts.enumerate() {
                    out.push(' ');
                    out.push_str(part);
                    if i == 0 || i == 2 {
                        out.push_str(suffix);
                    }
                }
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Appends `suffix` to the LTS name and every edge label.
pub fn rename_lts(text: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    for line in text.lines() {
        if let Some(name) = line.strip_prefix("lts ") {
            out.push_str("lts ");
            out.push_str(name);
            out.push_str(suffix);
        } else if let Some(rest) = line.strip_prefix("edge ") {
            let mut parts = rest.split(' ');
            let (from, label, to) = (parts.next(), parts.next(), parts.next());
            out.push_str("edge ");
            out.push_str(from.unwrap_or(""));
            out.push(' ');
            out.push_str(label.unwrap_or(""));
            out.push_str(suffix);
            out.push(' ');
            out.push_str(to.unwrap_or(""));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// `schedule_cold`: a round of 100 requests, 77 `/schedule` and 23 `/codegen` (C and
/// Rust), over the figure 2–7 nets, choice chains 4–12 and both ATM sizes.
///
/// The latency quantiles each sit in the middle of a block of one family, not on the
/// boundary between two: 43 requests are faster than choice_chain(5), whose twelve
/// `/schedule` copies hold the median, and three large requests (atm(queues=4)
/// `/schedule` and C, choice_chain(12) Rust) are slower than choice_chain(11), whose
/// eight `/schedule` copies hold the 95th percentile.
pub fn schedule_cold_deck(seed: u64) -> Deck {
    use Family::*;
    let figures = [Figure2, Figure3a, Figure3b, Figure4, Figure5, Figure7];
    let mut deck = cards(Kind::Schedule, &figures, 5);
    for (n, copies) in [(4, 3), (5, 12), (6, 6), (7, 5), (8, 5), (9, 4), (11, 8)] {
        deck.extend(cards(Kind::Schedule, &[ChoiceChain(n)], copies));
    }
    deck.extend(cards(Kind::Schedule, &[Atm(2)], 3));
    deck.extend(cards(Kind::Schedule, &[Atm(4)], 1));
    // Codegen only over schedulable nets: 3b and 7 would answer 422 by design.
    let schedulable = [
        Figure2,
        Figure3a,
        Figure4,
        Figure5,
        ChoiceChain(4),
        ChoiceChain(6),
        ChoiceChain(7),
        ChoiceChain(8),
        ChoiceChain(9),
        ChoiceChain(10),
    ];
    deck.extend(cards(Kind::CodegenC, &schedulable, 1));
    deck.extend(cards(Kind::CodegenRust, &schedulable, 1));
    deck.extend(cards(Kind::CodegenC, &[Atm(2), Atm(4)], 1));
    deck.extend(cards(Kind::CodegenRust, &[ChoiceChain(12)], 1));
    debug_assert_eq!(deck.len(), 100);
    Deck {
        seed,
        cards: deck,
        rename: true,
        hot: OnceLock::new(),
    }
}

/// `behaviour_cold`: a round of 44 requests, 22 `/analyze` (every family once
/// sequential and once with `threads=2`) and 22 `/synthesize` of LTS texts of
/// 4–200 KB explored from bounded gallery nets.
pub fn behaviour_cold_deck(seed: u64) -> Deck {
    use Family::*;
    let analyze = [
        CycleBank(10),
        CycleBank(11),
        CycleBank(12),
        CycleBank(13),
        CycleBank(14),
        MarkedRing(10, 4),
        MarkedRing(11, 5),
        MarkedRing(12, 6),
        ChoiceChain(6),
        ChoiceChain(7),
        ChoiceChain(8),
    ];
    let synthesize = [
        CycleBank(6),
        CycleBank(7),
        CycleBank(8),
        CycleBank(9),
        MarkedRing(6, 3),
        MarkedRing(7, 3),
        MarkedRing(8, 4),
        MarkedRing(9, 4),
        MarkedRing(10, 4),
        MarkedRing(8, 5),
        MarkedRing(9, 5),
    ];
    let mut deck = cards(Kind::Analyze { par: false }, &analyze, 1);
    deck.extend(cards(Kind::Analyze { par: true }, &analyze, 1));
    deck.extend(cards(Kind::Synthesize, &synthesize, 2));
    Deck {
        seed,
        cards: deck,
        rename: true,
        hot: OnceLock::new(),
    }
}

/// `hot_mix`: a working set of 32 inputs across all four POST endpoints, including
/// both ATM models and the largest LTS of the cold deck.
///
/// The atm(queues=4) *schedule* is left out on purpose: its 10 MB body is larger
/// than one cache shard's byte budget under the daemon defaults (64 MiB over 16
/// shards), so it evicts, and is evicted by, every working-set entry that hashes to
/// its shard, and the set could not stay hot. `/analyze` uses bounded nets only: the
/// truncated choice-chain explorations allocate tens of MB while warming, and which
/// worker's allocator arena keeps them decides the daemon's peak RSS run by run.
pub fn hot_mix_deck(seed: u64) -> Deck {
    use Family::*;
    let mut deck = cards(
        Kind::Schedule,
        &[
            Figure2,
            Figure3a,
            Figure3b,
            Figure4,
            Figure5,
            Figure7,
            ChoiceChain(6),
            ChoiceChain(8),
            ChoiceChain(10),
            Atm(2),
        ],
        1,
    );
    deck.extend(cards(Kind::CodegenC, &[Figure4, ChoiceChain(6), Atm(4)], 1));
    deck.extend(cards(
        Kind::CodegenRust,
        &[Figure5, ChoiceChain(8), Atm(2)],
        1,
    ));
    deck.extend(cards(
        Kind::Analyze { par: false },
        &[
            CycleBank(10),
            CycleBank(11),
            CycleBank(12),
            MarkedRing(10, 4),
        ],
        1,
    ));
    deck.extend(cards(
        Kind::Analyze { par: true },
        &[
            CycleBank(14),
            MarkedRing(9, 4),
            MarkedRing(11, 5),
            MarkedRing(12, 6),
        ],
        1,
    ));
    deck.extend(cards(
        Kind::Synthesize,
        &[
            CycleBank(6),
            CycleBank(7),
            CycleBank(8),
            CycleBank(9),
            MarkedRing(6, 3),
            MarkedRing(8, 4),
            MarkedRing(10, 4),
            MarkedRing(9, 5),
        ],
        1,
    ));
    Deck {
        seed,
        cards: deck,
        rename: false,
        hot: OnceLock::new(),
    }
}

/// `table1_sim`: the cell counts of one round of Table I experiments, each jittered
/// by up to ±2% and shuffled with the seed. A round always covers 10⁴–10⁵ cells.
pub fn table1_round(seed: u64, round: u64) -> Vec<usize> {
    let mut rng = SplitMix::new(sub_seed(seed, 4, round));
    let mut cells: Vec<usize> = [10_000usize, 25_000, 50_000, 100_000]
        .iter()
        .map(|&c| c - c / 50 + rng.below(c / 25 + 1))
        .collect();
    rng.shuffle(&mut cells);
    cells
}

fn cards(kind: Kind, families: &[Family], copies: usize) -> Vec<Card> {
    let mut out = Vec::new();
    for &family in families {
        for _ in 0..copies {
            out.push(Card { kind, family });
        }
    }
    out
}
