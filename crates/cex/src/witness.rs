//! Witness and refutation types: the structured result of a refuted
//! equivalence query, replayable against the explicit semantics.

use std::fmt;

use leapfrog_bitvec::BitVec;
use leapfrog_logic::confrel::ConfRel;
use leapfrog_logic::templates::TemplatePair;
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_p4a::semantics::{Config, Store};

/// How the two parsers concretely disagree on the witness packet.
#[derive(Debug, Clone)]
pub enum Disagreement {
    /// One side accepts the packet, the other does not — the language
    /// equivalence refutation.
    Acceptance {
        /// Whether the left parser accepts.
        left_accepts: bool,
        /// Whether the right parser accepts.
        right_accepts: bool,
    },
    /// Both runs land in the guard of a caller-supplied initial-relation
    /// conjunct whose store condition fails — the relational-property
    /// refutation (external filtering / store correspondence, §7.1).
    InitRelation {
        /// The violated initial conjunct.
        relation: ConfRel,
        /// Concrete values for the conjunct's packet variables, lifted from
        /// the countermodel.
        vals: Vec<BitVec>,
    },
}

/// A concrete, confirmed counterexample to an equivalence (or relational)
/// query: initial stores for both sides, a distinguishing packet with its
/// unneeded bits zeroed, the symbolic trace that produced it, and the
/// observed disagreement.
///
/// The witness owns a copy of the sum automaton so it can be replayed —
/// and re-checked by third parties — without any reference back to the
/// checker that produced it.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The sum automaton both runs execute in.
    aut: Automaton,
    /// Start state of the left run (a left-injected state of the sum).
    pub left_start: StateId,
    /// Start state of the right run.
    pub right_start: StateId,
    /// Initial store of the left run, lifted from the countermodel.
    pub left_store: Store,
    /// Initial store of the right run.
    pub right_store: Store,
    /// The distinguishing packet, with every bit the disagreement does
    /// not need zeroed.
    pub packet: BitVec,
    /// The template-pair trace of the refuted relation, from the root
    /// guard down to the violated initial conjunct. (A packet found by
    /// steered search may take a different path.)
    pub trace: Vec<TemplatePair>,
    /// What the replay observes.
    pub disagreement: Disagreement,
}

impl Witness {
    /// Creates a witness. `disagreement` should already describe what
    /// replaying `packet` observes; [`Witness::check`] re-validates it.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        aut: Automaton,
        left_start: StateId,
        right_start: StateId,
        left_store: Store,
        right_store: Store,
        packet: BitVec,
        trace: Vec<TemplatePair>,
        disagreement: Disagreement,
    ) -> Witness {
        Witness {
            aut,
            left_start,
            right_start,
            left_store,
            right_store,
            packet,
            trace,
            disagreement,
        }
    }

    /// The sum automaton the witness replays in.
    pub fn automaton(&self) -> &Automaton {
        &self.aut
    }

    /// The two initial configurations the witness's runs start from.
    fn initial(&self) -> (Config, Config) {
        (
            Config::with_store(self.left_start, self.left_store.clone()),
            Config::with_store(self.right_start, self.right_store.clone()),
        )
    }

    /// Replays the packet through the explicit bit-by-bit semantics (`δ*`,
    /// Definition 3.6) from both initial configurations, returning the
    /// final configurations.
    pub fn replay(&self) -> (Config, Config) {
        let (c1, c2) = self.initial();
        (
            c1.step_word(&self.aut, &self.packet),
            c2.step_word(&self.aut, &self.packet),
        )
    }

    /// Replays an arbitrary packet from the witness's initial
    /// configurations state by state ([`Config::run`], which reaches the
    /// same configurations as [`Witness::replay`]'s `δ*`).
    /// Canonicalization replays every candidate packet through it.
    pub fn replay_packet(&self, packet: &BitVec) -> (Config, Config) {
        let (c1, c2) = self.initial();
        (c1.run(&self.aut, packet), c2.run(&self.aut, packet))
    }

    /// Whether replaying `packet` reproduces this witness's kind of
    /// disagreement.
    pub fn packet_disagrees(&self, packet: &BitVec) -> bool {
        let (d1, d2) = self.replay_packet(packet);
        match &self.disagreement {
            Disagreement::Acceptance { .. } => d1.is_accepting() != d2.is_accepting(),
            Disagreement::InitRelation { relation, vals } => {
                relation.guard_matches(&d1, &d2) && !relation.phi.eval(&d1, &d2, vals)
            }
        }
    }

    /// Re-validates the witness from scratch: replaying the packet through
    /// the bit-by-bit semantics ([`Witness::replay`]) must reproduce the
    /// recorded disagreement.
    pub fn check(&self) -> bool {
        let (d1, d2) = self.replay();
        match &self.disagreement {
            Disagreement::Acceptance {
                left_accepts,
                right_accepts,
            } => {
                left_accepts != right_accepts
                    && d1.is_accepting() == *left_accepts
                    && d2.is_accepting() == *right_accepts
            }
            Disagreement::InitRelation { relation, vals } => {
                relation.guard_matches(&d1, &d2) && !relation.phi.eval(&d1, &d2, vals)
            }
        }
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample witness (confirmed by explicit replay):")?;
        writeln!(
            f,
            "  packet ({} bits): {}",
            self.packet.len(),
            group_bits(&self.packet)
        )?;
        writeln!(
            f,
            "  left  run: start {}, store: {}",
            self.aut.state_name(self.left_start),
            render_store(&self.aut, &self.left_store),
        )?;
        writeln!(
            f,
            "  right run: start {}, store: {}",
            self.aut.state_name(self.right_start),
            render_store(&self.aut, &self.right_store),
        )?;
        match &self.disagreement {
            Disagreement::Acceptance {
                left_accepts,
                right_accepts,
            } => {
                writeln!(
                    f,
                    "  disagreement: left {}, right {}",
                    verdict(*left_accepts),
                    verdict(*right_accepts)
                )?;
            }
            Disagreement::InitRelation { relation, .. } => {
                writeln!(
                    f,
                    "  disagreement: initial-relation conjunct violated: {}",
                    relation.display(&self.aut)
                )?;
            }
        }
        if !self.trace.is_empty() {
            write!(f, "  symbolic trace:")?;
            for (i, pair) in self.trace.iter().enumerate() {
                if i % 3 == 0 {
                    write!(f, "\n    ")?;
                } else {
                    write!(f, "  →  ")?;
                }
                write!(f, "{}", pair.display(&self.aut))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn verdict(accepts: bool) -> &'static str {
    if accepts {
        "accepts"
    } else {
        "rejects"
    }
}

/// Renders a packet as 8-bit groups for readability.
fn group_bits(bv: &BitVec) -> String {
    if bv.is_empty() {
        return "ε".into();
    }
    let mut out = String::with_capacity(bv.len() + bv.len() / 8);
    for (i, b) in bv.iter().enumerate() {
        if i > 0 && i % 8 == 0 {
            out.push(' ');
        }
        out.push(if b { '1' } else { '0' });
    }
    out
}

/// Renders the nonzero headers of a store, abbreviating long values.
fn render_store(aut: &Automaton, store: &Store) -> String {
    let mut parts = Vec::new();
    for h in aut.header_ids() {
        let v = store.get(h);
        if v.iter().any(|b| b) {
            let shown = if v.len() > 32 {
                format!("{}…({} bits)", group_bits(&v.subrange(0, 32)), v.len())
            } else {
                group_bits(v)
            };
            parts.push(format!("{} = {}", aut.header_name(h), shown));
        }
    }
    if parts.is_empty() {
        "all zeros".into()
    } else {
        parts.join(", ")
    }
}

/// What a refuted query carries: ideally a confirmed witness; otherwise a
/// diagnostic explaining why lifting or confirmation failed.
#[derive(Debug, Clone)]
pub enum Refutation {
    /// A confirmed counterexample. Boxed: a witness owns a
    /// copy of the sum automaton and dwarfs the other variant.
    Witness(Box<Witness>),
    /// The countermodel could not be lifted into a confirmed concrete
    /// disagreement; the symbolic refutation stands on the soundness of
    /// the decision procedure alone.
    Unconfirmed {
        /// Why lifting or confirmation failed.
        reason: String,
        /// The raw symbolic diagnostic (violated relation + countermodel).
        report: String,
    },
}

impl Refutation {
    /// Whether a confirmed witness is available.
    pub fn is_confirmed(&self) -> bool {
        matches!(self, Refutation::Witness(_))
    }

    /// The confirmed witness, if any.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            Refutation::Witness(w) => Some(w.as_ref()),
            Refutation::Unconfirmed { .. } => None,
        }
    }
}

impl fmt::Display for Refutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refutation::Witness(w) => write!(f, "{w}"),
            Refutation::Unconfirmed { reason, report } => {
                writeln!(f, "refutation (witness unconfirmed: {reason})")?;
                write!(f, "{report}")
            }
        }
    }
}
