//! The witness regression corpus: confirmed counterexample packets fed
//! back into the differential harness.
//!
//! Every confirmed refutation the symbolic checker produces is also a
//! perfect differential-testing input: a packet (plus initial stores) on
//! which two parsers demonstrably disagree. This module closes the loop —
//! [`WitnessCorpus::record`] captures the canonical packet and the lifted
//! stores of a [`Witness`], keyed by benchmark name; the corpus serializes
//! to a small line-based text file (the offline build has no serde) so it
//! survives across runs; and [`WitnessCorpus::exercise`] replays every
//! recorded packet for a pair through the explicit semantics of the
//! rebuilt sum automaton, reporting how many still distinguish the two
//! parsers. The differential harness and the `table2` binary re-exercise
//! the corpus on every run, so a regression that silently re-equalizes a
//! refuted pair (or breaks the semantics on an old counterexample) is
//! caught immediately.

use std::collections::BTreeMap;
use std::path::Path;

use leapfrog_bitvec::BitVec;
use leapfrog_cex::{Disagreement, Witness};
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_p4a::semantics::{Config, Store};
use leapfrog_p4a::sum::sum;

/// One recorded counterexample: the canonical packet and the nonzero
/// headers of both lifted initial stores, named over the *sum* automaton
/// (`l.<header>` / `r.<header>` — the sum construction is deterministic,
/// so the names resolve identically when the pair is rebuilt).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The distinguishing packet, unneeded bits zeroed.
    pub packet: BitVec,
    /// Nonzero headers of the left run's initial store.
    pub left_store: Vec<(String, BitVec)>,
    /// Nonzero headers of the right run's initial store.
    pub right_store: Vec<(String, BitVec)>,
}

/// What replaying a pair's corpus observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusReport {
    /// Entries replayed (store names resolved in the rebuilt sum).
    pub replayed: usize,
    /// Entries whose packet still drives the two runs to different
    /// acceptance verdicts.
    pub distinguishing: usize,
    /// Entries skipped because a stored header name did not resolve
    /// (the parser pair changed shape since the entry was recorded).
    pub skipped: usize,
}

/// A named collection of confirmed witness packets, replayable as
/// differential regression inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WitnessCorpus {
    entries: BTreeMap<String, Vec<CorpusEntry>>,
}

impl WitnessCorpus {
    /// An empty corpus.
    pub fn new() -> WitnessCorpus {
        WitnessCorpus::default()
    }

    /// Total recorded entries across all pairs.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The benchmark names with recorded entries.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// The entries recorded for a pair.
    pub fn entries(&self, name: &str) -> &[CorpusEntry] {
        self.entries.get(name).map_or(&[], Vec::as_slice)
    }

    /// The recorded packets for a pair (for merging into packet
    /// workloads; see [`crate::workload::packets_with_regressions`]).
    pub fn packets(&self, name: &str) -> Vec<BitVec> {
        self.entries(name)
            .iter()
            .map(|e| e.packet.clone())
            .collect()
    }

    /// Records a confirmed witness under `name`. Only acceptance
    /// disagreements are generically replayable (a relational
    /// counterexample may agree on acceptance, which the differential
    /// harness cannot observe), so others are declined. Returns whether a
    /// new entry was added (duplicates are dropped).
    pub fn record(&mut self, name: &str, witness: &Witness) -> bool {
        if !matches!(witness.disagreement, Disagreement::Acceptance { .. }) {
            return false;
        }
        let aut = witness.automaton();
        let collect = |store: &Store| -> Vec<(String, BitVec)> {
            aut.header_ids()
                .filter_map(|h| {
                    let v = store.get(h);
                    if v.iter().any(|b| b) {
                        Some((aut.header_name(h).to_string(), v.clone()))
                    } else {
                        None
                    }
                })
                .collect()
        };
        let entry = CorpusEntry {
            packet: witness.packet.clone(),
            left_store: collect(&witness.left_store),
            right_store: collect(&witness.right_store),
        };
        let bucket = self.entries.entry(name.to_string()).or_default();
        if bucket.contains(&entry) {
            return false;
        }
        bucket.push(entry);
        true
    }

    /// Replays every entry recorded for `name` against the pair,
    /// rebuilding the sum automaton the stores are named over.
    pub fn exercise(
        &self,
        name: &str,
        left: &Automaton,
        ql: StateId,
        right: &Automaton,
        qr: StateId,
    ) -> CorpusReport {
        let mut report = CorpusReport::default();
        let entries = self.entries(name);
        if entries.is_empty() {
            return report;
        }
        let s = sum(left, right);
        let ql = s.left_state(ql);
        let qr = s.right_state(qr);
        'entries: for entry in entries {
            let mut stores = [Store::zeros(&s.automaton), Store::zeros(&s.automaton)];
            for (i, named) in [&entry.left_store, &entry.right_store].iter().enumerate() {
                for (hname, bits) in named.iter() {
                    match s.automaton.header_by_name(hname) {
                        Some(h) if s.automaton.header_size(h) == bits.len() => {
                            stores[i].set(h, bits.clone())
                        }
                        _ => {
                            report.skipped += 1;
                            continue 'entries;
                        }
                    }
                }
            }
            let [left_store, right_store] = stores;
            let al = Config::with_store(ql, left_store)
                .step_word(&s.automaton, &entry.packet)
                .is_accepting();
            let ar = Config::with_store(qr, right_store)
                .step_word(&s.automaton, &entry.packet)
                .is_accepting();
            report.replayed += 1;
            if al != ar {
                report.distinguishing += 1;
            }
        }
        report
    }

    /// Serializes the corpus to the line-based text format.
    pub fn to_text(&self) -> String {
        fn stores(out: &mut String, tag: &str, named: &[(String, BitVec)]) {
            out.push_str(tag);
            if named.is_empty() {
                out.push_str(" -");
            } else {
                for (i, (name, bits)) in named.iter().enumerate() {
                    out.push(if i == 0 { ' ' } else { ',' });
                    out.push_str(name);
                    out.push('=');
                    out.push_str(&bits.to_string());
                }
            }
            out.push('\n');
        }
        let mut out = String::from("# leapfrog-witness-corpus v1\n");
        for (name, entries) in &self.entries {
            out.push_str("pair ");
            out.push_str(name);
            out.push('\n');
            for e in entries {
                out.push_str("packet ");
                if e.packet.is_empty() {
                    out.push('-');
                } else {
                    out.push_str(&e.packet.to_string());
                }
                out.push('\n');
                stores(&mut out, "left", &e.left_store);
                stores(&mut out, "right", &e.right_store);
            }
        }
        out
    }

    /// Parses the text format produced by [`WitnessCorpus::to_text`].
    pub fn from_text(text: &str) -> Result<WitnessCorpus, String> {
        fn parse_stores(rest: &str, line_no: usize) -> Result<Vec<(String, BitVec)>, String> {
            if rest == "-" {
                return Ok(Vec::new());
            }
            rest.split(',')
                .map(|kv| {
                    let (name, bits) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("line {line_no}: malformed store entry {kv:?}"))?;
                    let bits: BitVec = bits
                        .parse()
                        .map_err(|e| format!("line {line_no}: bad bits for {name}: {e}"))?;
                    Ok((name.to_string(), bits))
                })
                .collect()
        }
        let mut corpus = WitnessCorpus::new();
        let mut current: Option<String> = None;
        let mut pending: Option<CorpusEntry> = None;
        let flush = |name: &Option<String>,
                     pending: &mut Option<CorpusEntry>,
                     corpus: &mut WitnessCorpus|
         -> Result<(), String> {
            if let Some(entry) = pending.take() {
                let name = name
                    .as_ref()
                    .ok_or_else(|| "packet before any pair header".to_string())?;
                corpus.entries.entry(name.clone()).or_default().push(entry);
            }
            Ok(())
        };
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix("pair ") {
                flush(&current, &mut pending, &mut corpus)?;
                current = Some(name.to_string());
            } else if let Some(rest) = line.strip_prefix("packet ") {
                flush(&current, &mut pending, &mut corpus)?;
                let packet = if rest == "-" {
                    BitVec::new()
                } else {
                    rest.parse()
                        .map_err(|e| format!("line {line_no}: bad packet: {e}"))?
                };
                pending = Some(CorpusEntry {
                    packet,
                    left_store: Vec::new(),
                    right_store: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix("left ") {
                let entry = pending
                    .as_mut()
                    .ok_or(format!("line {line_no}: left before packet"))?;
                entry.left_store = parse_stores(rest, line_no)?;
            } else if let Some(rest) = line.strip_prefix("right ") {
                let entry = pending
                    .as_mut()
                    .ok_or(format!("line {line_no}: right before packet"))?;
                entry.right_store = parse_stores(rest, line_no)?;
            } else {
                return Err(format!("line {line_no}: unrecognized line {line:?}"));
            }
        }
        flush(&current, &mut pending, &mut corpus)?;
        Ok(corpus)
    }

    /// Loads a corpus from a file; a missing file is an empty corpus.
    pub fn load(path: impl AsRef<Path>) -> Result<WitnessCorpus, String> {
        match std::fs::read_to_string(path.as_ref()) {
            Ok(text) => WitnessCorpus::from_text(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(WitnessCorpus::new()),
            Err(e) => Err(format!("{}: {e}", path.as_ref().display())),
        }
    }

    /// Saves the corpus to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapfrog::{Checker, Options};
    use leapfrog_p4a::surface::parse;

    fn inequivalent_pair() -> (Automaton, StateId, Automaton, StateId) {
        let a = parse(
            "parser A { state s { extract(h, 2);
               select(h) { 0b11 => accept; _ => reject; } } }",
        )
        .unwrap();
        let b = parse(
            "parser B { state s { extract(h, 2);
               select(h) { 0b10 => accept; _ => reject; } } }",
        )
        .unwrap();
        let sa = a.state_by_name("s").unwrap();
        let sb = b.state_by_name("s").unwrap();
        (a, sa, b, sb)
    }

    #[test]
    fn record_roundtrip_and_exercise() {
        let (a, sa, b, sb) = inequivalent_pair();
        let mut checker = Checker::new(&a, sa, &b, sb, Options::default());
        let outcome = checker.run();
        let w = outcome.witness().expect("confirmed witness");

        let mut corpus = WitnessCorpus::new();
        assert!(corpus.record("toy", w));
        assert!(!corpus.record("toy", w), "duplicates are dropped");
        assert_eq!(corpus.len(), 1);

        // Text round trip.
        let text = corpus.to_text();
        let back = WitnessCorpus::from_text(&text).unwrap();
        assert_eq!(back, corpus);

        // The recorded packet still distinguishes the pair.
        let report = back.exercise("toy", &a, sa, &b, sb);
        assert_eq!(report.replayed, 1, "{report:?}");
        assert_eq!(report.distinguishing, 1, "{report:?}");
        assert_eq!(report.skipped, 0);

        // …and stops distinguishing a self-comparison, as expected.
        let self_report = back.exercise("toy", &a, sa, &a, sa);
        assert_eq!(self_report.distinguishing, 0);
    }

    #[test]
    fn store_dependent_witness_replays_with_stores() {
        // The witness for a store-dependent refutation needs its lifted
        // stores to reproduce the disagreement; the corpus must carry
        // them through serialization.
        let a = parse(
            "parser A {
               state s { extract(g, 1);
                 select(h[0:0]) { 0b1 => accept; _ => reject; } }
               header h : 4;
             }",
        )
        .unwrap();
        let sa = a.state_by_name("s").unwrap();
        let mut checker = Checker::new(&a, sa, &a, sa, Options::default());
        let outcome = checker.run();
        let w = outcome.witness().expect("store-dependence witness");
        let mut corpus = WitnessCorpus::new();
        assert!(corpus.record("store-dep", w));
        let back = WitnessCorpus::from_text(&corpus.to_text()).unwrap();
        let report = back.exercise("store-dep", &a, sa, &a, sa);
        assert_eq!(report.replayed, 1, "{report:?}");
        assert_eq!(
            report.distinguishing, 1,
            "stores must survive the round trip: {report:?}"
        );
    }

    #[test]
    fn shape_change_is_skipped_not_wrong() {
        let (a, sa, b, sb) = inequivalent_pair();
        let mut corpus = WitnessCorpus::new();
        corpus.entries.insert(
            "toy".into(),
            vec![CorpusEntry {
                packet: "11".parse().unwrap(),
                left_store: vec![("l.absent".into(), "1".parse().unwrap())],
                right_store: vec![],
            }],
        );
        let report = corpus.exercise("toy", &a, sa, &b, sb);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.skipped, 1);
    }

    #[test]
    fn missing_file_is_empty_corpus() {
        let corpus = WitnessCorpus::load("/nonexistent/leapfrog-corpus.txt");
        assert_eq!(corpus, Ok(WitnessCorpus::new()));
    }
}
