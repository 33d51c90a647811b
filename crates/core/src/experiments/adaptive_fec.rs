//! The Section 8 conjecture, tested: "the errors we did observe might be
//! recoverable through a variable FEC mechanism."
//!
//! We take the paper's own worst *recoverable* environment — the "AT&T
//! handset" spread-spectrum-phone trial, where 59% of arriving packets carry
//! body errors — and replay each damaged packet's error density through the
//! RCPC rate family of `wavelan-fec` (with block interleaving, so channel
//! bursts whiten to the code's taste). Two questions:
//!
//! 1. **Static**: what fraction of the damaged packets would each fixed code
//!    rate have recovered, and at what redundancy overhead?
//! 2. **Adaptive**: walking the trial chronologically with the
//!    quality-driven [`wavelan_fec::AdaptiveFec`] controller, what residual
//!    corruption remains, and how much cheaper is it than always running the
//!    strongest code?

use super::common::Scale;
use super::ss_phone;
use crate::calibration;
use crate::executor::Executor;
use crate::registry::Experiment;
use crate::spec::{interferer_from_source, FecSpec, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wavelan_analysis::report::{Cell, Column, Table};
use wavelan_analysis::{Block, PacketClass, Report};
use wavelan_fec::rcpc::{CodeRate, RcpcCodec};
use wavelan_fec::{AdaptiveFec, BlockInterleaver, FecScratch};
use wavelan_phy::link::sample_bit_errors;

/// Body payload per packet, bytes.
const PAYLOAD_BYTES: usize = 1_024;

/// Per-rate recovery statistics.
#[derive(Debug, Clone)]
pub(crate) struct RateOutcome {
    /// The code rate.
    pub rate: CodeRate,
    /// Damaged packets replayed.
    pub replayed: usize,
    /// Of those, how many decoded to a clean payload.
    pub recovered: usize,
    /// Redundancy overhead of this rate.
    pub overhead: f64,
}

impl RateOutcome {
    /// Recovery fraction.
    pub(crate) fn recovery(&self) -> f64 {
        if self.replayed == 0 {
            return 1.0;
        }
        self.recovered as f64 / self.replayed as f64
    }
}

/// Adaptive-controller trajectory summary.
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveOutcome {
    /// Packets processed.
    pub packets: usize,
    /// Packets that ended corrupted despite FEC.
    pub residual_corrupted: usize,
    /// Mean redundancy overhead actually paid.
    pub mean_overhead: f64,
}

/// The experiment result.
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveFecResult {
    /// Fixed-rate outcomes, weakest code first.
    pub fixed: Vec<RateOutcome>,
    /// The adaptive controller's outcome on the same packet sequence.
    pub adaptive: AdaptiveOutcome,
    /// Fraction of arriving packets that were body-damaged without FEC.
    pub uncoded_damaged_fraction: f64,
}

impl AdaptiveFecResult {
    /// The report blocks: headline notes, the fixed-rate table, and the
    /// adaptive-controller summary.
    pub(crate) fn blocks(&self) -> Vec<Block> {
        let table = Table {
            heading: None,
            columns: vec![
                Column::new("rate", "rate").width(6).sep(""),
                Column::new("overhead_pct", "overhead")
                    .width(8)
                    .suffix("%")
                    .header_width(10),
                Column::new("recovered_pct", "recovered")
                    .width(9)
                    .precision(1)
                    .suffix("%")
                    .header_width(10),
            ],
            rows: self
                .fixed
                .iter()
                .map(|r| {
                    vec![
                        Cell::Str(format!("{:?}", r.rate)),
                        Cell::Float(r.overhead * 100.0),
                        Cell::Float(r.recovery() * 100.0),
                    ]
                })
                .collect(),
        };
        vec![
            Block::Note(String::from(
                "Variable FEC on the 'AT&T handset' error trace (paper Section 8)",
            )),
            Block::Note(format!(
                "uncoded: {:.0}% of arriving packets body-damaged",
                self.uncoded_damaged_fraction * 100.0
            )),
            Block::Blank,
            Block::Table(table),
            Block::Blank,
            Block::Note(format!(
                "adaptive controller: {:.2}% residual corruption at {:.0}% mean overhead \
                 (vs {:.0}% overhead always-strongest)",
                self.adaptive.residual_corrupted as f64 / self.adaptive.packets.max(1) as f64
                    * 100.0,
                self.adaptive.mean_overhead * 100.0,
                CodeRate::R1_4.overhead() * 100.0,
            )),
        ]
    }
}

/// This experiment's registry id (no sim trials of its own — it replays the
/// SS-phone trace — so the id is only a registry discriminator).
pub(crate) const EXPERIMENT_ID: u64 = 15;

/// Registry entry for the Section 8 variable-FEC conjecture.
pub(crate) struct Fec;

impl Experiment for Fec {
    fn id(&self) -> u64 {
        EXPERIMENT_ID
    }

    fn artifact_name(&self) -> &'static str {
        "fec"
    }

    fn paper_artifact(&self) -> &'static str {
        "Section 8 conjecture (variable FEC)"
    }

    fn packet_budget(&self, scale: Scale) -> u64 {
        6 * scale.packets(ss_phone::PAPER_PACKETS)
    }

    fn spec(&self) -> ScenarioSpec {
        // The replayed environment: the "AT&T handset" spread-spectrum-phone
        // trial, with the adaptive RCPC controller layered on. Sweeps can
        // walk the phone duty (`interferers[0].duty_pct`).
        let mut spec = ScenarioSpec::pair("fec", (0.0, 0.0), (12.0, 0.0), ss_phone::PAPER_PACKETS)
            .with_interferer(interferer_from_source(&calibration::ss_phone_handset_only()))
            .with_interferer(interferer_from_source(
                &calibration::ss_phone_handset_residual(),
            ));
        spec.propagation.shadowing_sigma_db = 0.0;
        spec.fec = Some(FecSpec {
            code_rate: "adaptive".into(),
            harq_rounds: 0,
        });
        spec
    }

    fn run(&self, scale: Scale, seed: u64, exec: &Executor) -> Report {
        let result = run_with(scale, seed, exec);
        Report::new(
            self.artifact_name(),
            self.paper_artifact(),
            self.packet_budget(scale),
            result.blocks(),
        )
    }
}

/// Replay machinery with everything deterministic hoisted out of the
/// per-packet loop: the payload, one encoded+interleaved wire template per
/// rate (encode and interleave are pure functions of the rate), and the
/// channel/decode buffers plus FEC scratch that make each replay
/// allocation-free. RNG draw order per replay is identical to the original
/// encode-per-packet formulation (the template changes no draws).
struct ReplayCtx {
    codec: RcpcCodec,
    interleaver: BlockInterleaver,
    payload: Vec<u8>,
    /// `interleave(encode(payload, rate))`, in [`CodeRate::ALL`] order.
    templates: Vec<Vec<u8>>,
    channel: Vec<u8>,
    received: Vec<u8>,
    decoded: Vec<u8>,
    scratch: FecScratch,
}

impl ReplayCtx {
    fn new() -> ReplayCtx {
        let codec = RcpcCodec::new();
        let interleaver = BlockInterleaver::new(64, 128);
        let payload = vec![0x6Au8; PAYLOAD_BYTES];
        let templates = CodeRate::ALL
            .iter()
            .map(|&rate| interleaver.interleave(&codec.encode(&payload, rate)))
            .collect();
        ReplayCtx {
            codec,
            interleaver,
            payload,
            templates,
            channel: Vec::new(),
            received: Vec::new(),
            decoded: Vec::new(),
            scratch: FecScratch::new(),
        }
    }

    /// Replays one packet's error density through a rate: decode success.
    fn replay(&mut self, rate: CodeRate, bit_error_rate: f64, rng: &mut StdRng) -> bool {
        let idx = CodeRate::ALL.iter().position(|&r| r == rate).unwrap();
        let template = &self.templates[idx];
        // The interleaver has whitened burst structure; apply the measured
        // error density uniformly over the coded stream.
        let n_err = sample_bit_errors(template.len() as u64, bit_error_rate, rng);
        if n_err == 0 {
            // Clean frame: decode(encode(payload)) == payload for every rate
            // (the codec round-trip property), so the decode is skipped. Most
            // replayed packets carry zero errors — the paper's central
            // observation — making this the common case.
            return true;
        }
        self.channel.clear();
        self.channel.extend_from_slice(&self.templates[idx]);
        for _ in 0..n_err {
            let i = rand::Rng::gen_range(rng, 0..self.channel.len());
            self.channel[i] ^= 1;
        }
        self.interleaver
            .deinterleave_into(&self.channel, &mut self.received);
        self.codec.decode_hard_with(
            &self.received,
            PAYLOAD_BYTES,
            rate,
            &mut self.scratch,
            &mut self.decoded,
        );
        self.decoded == self.payload
    }
}

/// [`run`] on an explicit executor. The inner SS-phone trials fan out; the
/// replay itself stays serial — the adaptive controller walks the trace
/// chronologically through one RNG, which is the point of the experiment.
pub(crate) fn run_with(scale: Scale, seed: u64, _exec: &Executor) -> AdaptiveFecResult {
    // Only the AT&T-handset environment is replayed; ss_phone trials seed
    // independent RNG streams, so running just that one is bit-identical
    // to slicing it out of the full six-trial run.
    let trial = &ss_phone::run_trial("AT&T handset", scale, seed);
    let mut ctx = ReplayCtx::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEC);

    // The error densities of the damaged, non-truncated packets.
    let densities: Vec<f64> = trial
        .analysis
        .test_packets()
        .filter(|p| p.class == PacketClass::BodyDamaged)
        .map(|p| f64::from(p.body_bit_errors) / 8_192.0)
        .take(120)
        .collect();
    let arriving = trial.analysis.test_packets().count();
    let damaged_total = trial
        .analysis
        .test_packets()
        .filter(|p| p.class == PacketClass::BodyDamaged)
        .count();
    let uncoded_damaged_fraction = if arriving == 0 {
        0.0
    } else {
        damaged_total as f64 / arriving as f64
    };

    let fixed = CodeRate::ALL
        .iter()
        .map(|&rate| {
            let recovered = densities
                .iter()
                .filter(|&&ber| ctx.replay(rate, ber, &mut rng))
                .count();
            RateOutcome {
                rate,
                replayed: densities.len(),
                recovered,
                overhead: rate.overhead(),
            }
        })
        .collect();

    // Adaptive pass: walk all arriving packets chronologically; the
    // controller sees the modem quality and the decode outcome.
    let mut controller = AdaptiveFec::new(CodeRate::R8_9).with_weaken_after(32);
    let mut residual = 0usize;
    let mut overhead_sum = 0.0;
    let mut packets = 0usize;
    for p in trial.analysis.test_packets() {
        if p.class == PacketClass::Truncated {
            continue; // FEC cannot restore bits that never arrived
        }
        let rate = controller.current();
        overhead_sum += rate.overhead();
        packets += 1;
        let ber = f64::from(p.body_bit_errors) / 8_192.0;
        let ok = if ber == 0.0 {
            true
        } else {
            ctx.replay(rate, ber, &mut rng)
        };
        if !ok {
            residual += 1;
        }
        controller.observe(ok, p.quality);
    }

    AdaptiveFecResult {
        fixed,
        adaptive: AdaptiveOutcome {
            packets,
            residual_corrupted: residual,
            mean_overhead: if packets == 0 {
                0.0
            } else {
                overhead_sum / packets as f64
            },
        },
        uncoded_damaged_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelan_analysis::report::render_blocks;

    #[test]
    fn section_8_conjecture_holds() {
        let result = run_with(Scale::Smoke, 29, &Executor::default());

        // The uncoded channel really is the paper's intermediate regime.
        assert!(
            (0.3..0.85).contains(&result.uncoded_damaged_fraction),
            "{}",
            result.uncoded_damaged_fraction
        );

        // Stronger codes recover (weakly) more, and the strong end recovers
        // essentially everything — the conjecture.
        let recoveries: Vec<f64> = result.fixed.iter().map(|r| r.recovery()).collect();
        for w in recoveries.windows(2) {
            assert!(w[1] >= w[0] - 0.05, "{recoveries:?}");
        }
        let strongest = recoveries.last().unwrap();
        assert!(*strongest > 0.95, "R1_4 recovery {strongest}");
        // Rate 1/2 already recovers the large majority.
        assert!(recoveries[3] > 0.85, "{recoveries:?}");

        // The adaptive controller ends with little residual corruption at a
        // fraction of the always-strongest overhead.
        let adaptive = &result.adaptive;
        assert!(adaptive.packets > 100);
        let residual_rate = adaptive.residual_corrupted as f64 / adaptive.packets as f64;
        assert!(
            residual_rate < result.uncoded_damaged_fraction / 2.0,
            "residual {residual_rate} vs uncoded {}",
            result.uncoded_damaged_fraction
        );
        assert!(adaptive.mean_overhead < CodeRate::R1_4.overhead());

        assert!(render_blocks(&result.blocks()).contains("adaptive controller"));
    }
}
