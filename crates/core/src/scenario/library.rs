//! The named scenario library: the hand-wired MAC/capture choreography of
//! earlier PRs re-expressed as event-DAG scripts, plus the new scripted
//! studies (mobile-interferer walk-by, microwave duty-cycle × packet-length
//! sweep, dense-cell capture matrix). Each script's stations and
//! interferers are a [`ScenarioSpec`] in the registry's vocabulary.
//!
//! Every entry here is reachable as `repro --scenario <name>`; the matrix
//! scenarios fan their cells out through the deterministic [`Executor`], so
//! `--jobs 1` and `--jobs 8` produce bit-identical reports.

use super::model::{Action, Cmp, Quantity, Require, ScenarioScript};
use super::run::{Judgment, ScenarioOutcome};
use crate::executor::{trial_seed, Executor};
use crate::spec::{InterfererSpec, PropagationSpec, Role, ScenarioSpec, StationSpec};
use crate::Scale;
use wavelan_analysis::report::{Cell, Column, Table};
use wavelan_analysis::{Block, Report};
use wavelan_mac::Thresholds;
use wavelan_sim::{Point, SimScratch};

/// Seed-stream ids of the scenario suite (disjoint from the registry's
/// experiment streams by convention: experiments use low ids).
const STREAM_CAPTURE: u64 = 40;
const STREAM_EQUAL_POWER: u64 = 41;
const STREAM_WALK_BY: u64 = 42;
const STREAM_OVEN: u64 = 43;
const STREAM_DENSE: u64 = 44;

/// The study's application spacing for 1070-byte test packets, ns.
const TEST_SPACING_NS: u64 = 6_100_000;

/// Section 7.4's threshold-25 tuning: deaf to distant chatter, still
/// carrier-sensing nearby stations.
pub const THRESHOLD_25: u8 = 25;

/// The receiver/sender pair every library scenario starts from: `rx` at the
/// origin and `tx` at `(tx_x_ft, 0)` on the open floor, with shadowing off
/// so the propagation seed draws nothing. `packets` becomes the spec's
/// packet budget, which a script does not read: its transmit events say
/// what the sender sends.
fn open_pair(name: &str, tx_x_ft: f64, packets: u64) -> ScenarioSpec {
    ScenarioSpec::pair(name, (0.0, 0.0), (tx_x_ft, 0.0), packets).with_propagation(
        PropagationSpec {
            shadowing_sigma_db: 0.0,
            ..PropagationSpec::indoor()
        },
    )
}

/// Every scenario name `repro --scenario` accepts.
pub const SCENARIO_NAMES: &[&str] = &[
    "capture-chatter",
    "equal-power",
    "walk-by",
    "oven-sweep",
    "dense-cell",
];

// ---------------------------------------------------------------------------
// capture-chatter: the ported strong-packets-capture-over-weak-chatter test.
// ---------------------------------------------------------------------------

/// Strong test packets captured over weak foreign chatter — the scripted
/// form of the Section 7.4 capture conformance test.
///
/// A receiver at the origin, a scripted sender 7 ft away, and a foreign
/// chatterer 395 ft away whose 512-byte frames the receiver's default
/// threshold still locks. With `sender_threshold` = 25 the sender is deaf
/// to the chatter and transmits over it; every test packet then captures
/// the receiver away from whatever chatter frame it was locked on
/// (6 dB margin, Section 7.4). With the default threshold 3 the sender
/// *hears* the chatter and defers instead — transmissions never overlap and
/// the first require (`chatter-overlapped`) fails: that is the PR 4
/// mutual-CSMA-deferral regression, now an explicit ground-truth condition.
pub fn capture_chatter(seed: u64, scale: Scale, sender_threshold: u8) -> ScenarioScript {
    let n = scale.packets(600);
    let mut spec = open_pair("capture-chatter", 7.0, n);
    spec.stations[1].receive_threshold = sender_threshold;
    let chatter = StationSpec {
        interval_ns: 3_000_000,
        frame_bytes: 512,
        ..StationSpec::new(Role::Sender, 395.0, 0.0)
    };
    let mut s = ScenarioScript::new(spec.with_station(chatter), &["rx", "tx", "chatter"], seed);
    s.event(
        "send",
        &[],
        Action::Transmit {
            station: "tx".into(),
            packets: n,
            spacing_ns: TEST_SPACING_NS,
        },
    );
    // First require first judged: the PR 4 regression guard. A deferring
    // sender zeroes the global overlap count — the capture numbers below
    // would then be vacuously clean.
    s.require("chatter-overlapped", Quantity::OverlapCount, Cmp::Gt, 0.0);
    s.require(
        "all-sent",
        Quantity::Transmitted {
            station: "tx".into(),
        },
        Cmp::Eq,
        n as f64,
    );
    s.require(
        "test-packets-captured-through",
        Quantity::Delivered {
            receiver: "rx".into(),
            from: Some("tx".into()),
        },
        Cmp::Ge,
        (n as f64 * 0.995).floor(),
    );
    s.require(
        "no-test-truncation",
        Quantity::Truncated {
            receiver: "rx".into(),
            from: Some("tx".into()),
        },
        Cmp::Eq,
        0.0,
    );
    s.require(
        "chatter-pays-the-price",
        Quantity::Truncated {
            receiver: "rx".into(),
            from: Some("chatter".into()),
        },
        Cmp::Gt,
        (n / 60) as f64,
    );
    s
}

// ---------------------------------------------------------------------------
// equal-power: the ported equal_power_does_not_capture test.
// ---------------------------------------------------------------------------

/// Two equal-power saturating jammers at the same distance: neither ever
/// captures the receiver from the other (capture needs a ≥ 6 dB edge the
/// symmetric geometry cannot supply), so no delivered packet is truncated.
pub fn equal_power(seed: u64) -> ScenarioScript {
    // j1 is a saturating sender with a jammer's deaf threshold.
    let mut spec = open_pair("equal-power", 10.0, 1);
    spec.stations[1].interval_ns = 0;
    spec.stations[1].receive_threshold = Thresholds::deaf().receive_level;
    spec.stations[1].peer = Some(2);
    let j2 = StationSpec {
        peer: Some(1),
        ..StationSpec::new(Role::Jammer, 0.0, 10.0)
    };
    let mut s = ScenarioScript::new(spec.with_station(j2), &["rx", "j1", "j2"], seed);
    s.event(
        "contend",
        &[],
        Action::Wait {
            duration_ns: 500_000_000,
        },
    );
    s.require("jammers-overlap", Quantity::OverlapCount, Cmp::Gt, 0.0);
    s.require(
        "packets-get-through",
        Quantity::Delivered {
            receiver: "rx".into(),
            from: None,
        },
        Cmp::Gt,
        30.0,
    );
    s.require(
        "equal-power-cannot-capture",
        Quantity::CapturesMade {
            receiver: "rx".into(),
        },
        Cmp::Eq,
        0.0,
    );
    s.require(
        "no-truncation",
        Quantity::Truncated {
            receiver: "rx".into(),
            from: None,
        },
        Cmp::Eq,
        0.0,
    );
    s
}

// ---------------------------------------------------------------------------
// walk-by: a mobile interferer passes the test link.
// ---------------------------------------------------------------------------

/// A saturating mobile station walks past an in-room test link: clean
/// delivery before the pass, carrier-sense deferrals and capture churn
/// during it, recovery after (Section 7.4's mobility + capture mechanics on
/// one timeline).
pub(crate) fn walk_by(seed: u64, scale: Scale) -> ScenarioScript {
    let n = scale.packets(600);
    let mut spec = open_pair("walk-by", 7.0, n);
    spec.stations[1].receive_threshold = THRESHOLD_25;
    let walker = StationSpec::new(Role::Jammer, 200.0, 10.0);
    let mut s = ScenarioScript::new(spec.with_station(walker), &["rx", "tx", "walker"], seed);
    s.event(
        "send",
        &[],
        Action::Transmit {
            station: "tx".into(),
            packets: n,
            spacing_ns: TEST_SPACING_NS,
        },
    );
    s.event(
        "settle",
        &[],
        Action::Wait {
            duration_ns: 600_000_000,
        },
    );
    s.event(
        "probe-clean-before",
        &["settle"],
        Action::Assert {
            require: Require::new(
                "clean-before-the-pass",
                Quantity::DeliveryRatio {
                    receiver: "rx".into(),
                    sender: "tx".into(),
                },
                Cmp::Ge,
                0.97,
            ),
        },
    );
    s.event(
        "walk-past",
        &["settle"],
        Action::Move {
            station: "walker".into(),
            to: Point::feet(-200.0, 10.0),
            duration_ns: 600_000_000,
            steps: 40,
        },
    );
    s.event(
        "probe-deferred-during",
        &["walk-past"],
        Action::Assert {
            require: Require::new(
                "sender-deferred-during-the-pass",
                Quantity::Deferrals {
                    station: "tx".into(),
                },
                Cmp::Gt,
                0.0,
            ),
        },
    );
    s.require(
        "all-sent-despite-the-walker",
        Quantity::Transmitted {
            station: "tx".into(),
        },
        Cmp::Eq,
        n as f64,
    );
    s.require(
        "link-survives-overall",
        Quantity::DeliveryRatio {
            receiver: "rx".into(),
            sender: "tx".into(),
        },
        Cmp::Ge,
        0.80,
    );
    s.require(
        "capture-rescued-packets",
        Quantity::CapturesMade {
            receiver: "rx".into(),
        },
        Cmp::Gt,
        0.0,
    );
    s.require("walker-overlapped", Quantity::OverlapCount, Cmp::Gt, 0.0);
    s
}

// ---------------------------------------------------------------------------
// oven-sweep: pulsed-interference duty cycle × packet length matrix.
// ---------------------------------------------------------------------------

/// One cell of the oven sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OvenCell {
    /// Interferer on-fraction, percent (0 = interferer absent).
    pub duty_percent: u32,
    /// Ethernet body size of the test frames, bytes.
    pub body_bytes: u16,
}

/// The sweep grid: duty fractions × packet lengths. Zero duty is the
/// control row (Table 2's clean in-room case).
pub(crate) const OVEN_DUTIES: [u32; 3] = [0, 25, 50];
/// Packet lengths swept, bytes (short ARP-sized to the study's 1070-byte
/// test packets).
pub(crate) const OVEN_BODIES: [u16; 3] = [64, 512, 1024];

/// Every duty × length cell, in grid order (the order of the report's rows
/// and of the per-cell seeds).
fn oven_cells() -> Vec<OvenCell> {
    OVEN_DUTIES
        .iter()
        .flat_map(|&duty_percent| {
            OVEN_BODIES.iter().map(move |&body_bytes| OvenCell {
                duty_percent,
                body_bytes,
            })
        })
        .collect()
}

/// Packets per sweep cell at `scale`.
pub(crate) fn oven_cell_packets(scale: Scale) -> u64 {
    match scale {
        Scale::Smoke => 200,
        Scale::Reduced => 800,
        Scale::Paper => 2_400,
    }
}

/// One duty × length cell as a scenario: an in-room link under a pulsed
/// in-band interferer with a magnetron-like 60 Hz period (after Zarikoff &
/// Leith's microwave-oven characterization). The judged quantity is the
/// paper's error-free delivery rate.
pub(crate) fn oven_cell(seed: u64, cell: OvenCell, packets: u64) -> ScenarioScript {
    let mut spec = open_pair("oven-sweep", 7.0, packets);
    spec.stations[1].frame_bytes = cell.body_bytes;
    // A 60 Hz magnetron half-cycle: 16.5 ms period at 2 Mb/s = 33,000
    // bit-times, on for duty% of it (0% builds no source at all).
    let duty = f64::from(cell.duty_percent);
    let spec = spec.with_interferer(InterfererSpec::burst(
        "wideband",
        OVEN_POWER_DBM,
        duty,
        33_000,
    ));
    let mut s = ScenarioScript::new(spec, &["rx", "tx"], seed);
    s.event(
        "send",
        &[],
        Action::Transmit {
            station: "tx".into(),
            packets,
            spacing_ns: TEST_SPACING_NS,
        },
    );
    s.require(
        "all-sent",
        Quantity::Transmitted {
            station: "tx".into(),
        },
        Cmp::Eq,
        packets as f64,
    );
    let intact = Quantity::IntactRatio {
        receiver: "rx".into(),
        sender: "tx".into(),
    };
    if cell.duty_percent == 0 {
        s.require("clean-control-row", intact, Cmp::Ge, 0.98);
    } else {
        // The burst train must actually bite, but may not sever the link:
        // loose per-cell bounds; the sweep's monotonicity conditions are
        // judged across cells by [`oven_sweep`].
        s.require("oven-bites", intact.clone(), Cmp::Lt, 1.0);
        s.require("link-alive", intact, Cmp::Gt, 0.02);
    }
    s
}

/// Oven burst power at the receiver, dBm. The 7 ft test link lands at
/// ≈ −48 dBm (27 dBm EIRP − 36 dB system loss − ≈39 dB path loss); the
/// wideband burst loses 4 dB to despreading, so −42 dBm raw leaves an
/// on-phase despread SINR of ≈ −2 dB — Eb/N0 ≈ 5.4 dB after the bandwidth
/// gain, i.e. a per-bit error rate that essentially guarantees a hit on any
/// frame overlapping a burst, while staying above the −4 dB chip-unlock
/// threshold so the dominant symptom is corruption, not truncation. Frames
/// that fit inside the magnetron's off half-cycle survive untouched, which
/// is what makes loss grow with frame length.
const OVEN_POWER_DBM: f64 = -42.0;

// ---------------------------------------------------------------------------
// dense-cell: capture margin vs interferer distance matrix.
// ---------------------------------------------------------------------------

/// One cell of the dense-cell capture matrix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DenseCell {
    /// Test sender distance from the receiver, feet.
    pub near_ft: f64,
    /// Saturating co-channel interferer distance, feet.
    pub far_ft: f64,
}

/// Sender distances swept, feet.
pub(crate) const DENSE_NEAR_FT: [f64; 2] = [7.0, 14.0];
/// Interferer distances swept, feet.
pub(crate) const DENSE_FAR_FT: [f64; 3] = [25.0, 60.0, 160.0];

/// Every sender × rival distance cell, in grid order.
fn dense_cells() -> Vec<DenseCell> {
    DENSE_NEAR_FT
        .iter()
        .flat_map(|&near_ft| {
            DENSE_FAR_FT
                .iter()
                .map(move |&far_ft| DenseCell { near_ft, far_ft })
        })
        .collect()
}

/// Packets per matrix cell at `scale`.
pub(crate) fn dense_cell_packets(scale: Scale) -> u64 {
    match scale {
        Scale::Smoke => 150,
        Scale::Reduced => 600,
        Scale::Paper => 2_400,
    }
}

/// One cell of the dense-cell matrix: a deaf saturating interferer
/// `far_ft` from the receiver contends with the test link. The sender is
/// deaf too (threshold 25), so carrier sense never defers: every collision
/// is settled by the 6 dB capture margin alone — delivery of the test
/// series measures how far capture protects a strong link (Section 7.4).
pub(crate) fn dense_cell(seed: u64, cell: DenseCell, packets: u64) -> ScenarioScript {
    let mut spec = open_pair("dense-cell", cell.near_ft, packets);
    spec.stations[1].receive_threshold = THRESHOLD_25;
    let rival = StationSpec::new(Role::Jammer, -cell.far_ft, 0.0);
    let mut s = ScenarioScript::new(spec.with_station(rival), &["rx", "tx", "rival"], seed);
    s.event(
        "send",
        &[],
        Action::Transmit {
            station: "tx".into(),
            packets,
            spacing_ns: TEST_SPACING_NS,
        },
    );
    s.require(
        "all-sent",
        Quantity::Transmitted {
            station: "tx".into(),
        },
        Cmp::Eq,
        packets as f64,
    );
    s.require("contention-overlaps", Quantity::OverlapCount, Cmp::Gt, 0.0);
    // Capture needs a ≥ 6 dB edge; with square-law-or-steeper path loss
    // that means the rival at least twice as far as the sender. Cells
    // inside that ratio are the deliberate no-capture contention corner.
    if cell.far_ft >= 2.0 * cell.near_ft {
        s.require(
            "capture-active",
            Quantity::CapturesMade {
                receiver: "rx".into(),
            },
            Cmp::Gt,
            0.0,
        );
    }
    s
}

// ---------------------------------------------------------------------------
// Suite execution + reports.
// ---------------------------------------------------------------------------

/// The outcome of a whole named scenario (single run or matrix): every
/// per-run judgment plus any cross-cell suite judgments, and the rendered
/// report.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The rendered report (what `repro --scenario` prints).
    pub report: Report,
    /// Every judgment, in judging order (cells first, then suite-level).
    pub judgments: Vec<Judgment>,
}

impl ScenarioRun {
    /// Whether every condition held.
    pub fn passed(&self) -> bool {
        self.judgments.iter().all(|j| j.passed)
    }
}

/// Runs a named scenario from [`SCENARIO_NAMES`]. Returns None for an
/// unknown name.
pub fn run_named(name: &str, seed: u64, scale: Scale, exec: &Executor) -> Option<ScenarioRun> {
    match name {
        "capture-chatter" => Some(single_run(
            "capture-chatter",
            "Section 7.4 (capture conformance)",
            capture_chatter(trial_seed(STREAM_CAPTURE, 0, seed), scale, THRESHOLD_25),
        )),
        "equal-power" => Some(single_run(
            "equal-power",
            "Section 7.4 (capture symmetry)",
            equal_power(trial_seed(STREAM_EQUAL_POWER, 0, seed)),
        )),
        "walk-by" => Some(single_run(
            "walk-by",
            "Section 7.4 (mobility + capture)",
            walk_by(trial_seed(STREAM_WALK_BY, 0, seed), scale),
        )),
        "oven-sweep" => Some(oven_sweep(seed, scale, exec)),
        "dense-cell" => Some(dense_cell_matrix(seed, scale, exec)),
        _ => None,
    }
}

/// Compiles and runs one script, rendering its judgments as a report.
fn single_run(
    artifact: &'static str,
    paper_artifact: &'static str,
    script: ScenarioScript,
) -> ScenarioRun {
    let compiled = script
        .compile()
        .unwrap_or_else(|e| panic!("library scenario {artifact:?} must compile: {e}"));
    let outcome = compiled.run();
    let packets = outcome.result.packets_transmitted.iter().sum();
    let mut blocks = vec![
        Block::Note(format!(
            "Scenario {:?} ({paper_artifact})\nevent firing order: {}",
            outcome.name,
            compiled.fire_order.join(" → "),
        )),
        Block::Blank,
    ];
    blocks.push(Block::Note(judgment_lines(&outcome.judgments)));
    ScenarioRun {
        report: Report::new(artifact, paper_artifact, packets, blocks),
        judgments: outcome.judgments,
    }
}

fn judgment_lines(judgments: &[Judgment]) -> String {
    judgments
        .iter()
        .map(Judgment::line)
        .collect::<Vec<_>>()
        .join("\n")
}

/// A hand-built suite-level judgment (cross-cell conditions the per-cell
/// scripts cannot express).
fn suite_judgment(name: &str, quantity: String, actual: f64, cmp: Cmp, bound: f64) -> Judgment {
    Judgment {
        require: name.to_string(),
        event: None,
        quantity,
        actual,
        cmp,
        bound,
        passed: cmp.holds(actual, bound),
        context: String::new(),
    }
}

/// Extracts the value of `quantity` as judged in `outcome` — the cells of a
/// matrix publish their headline number through a require, so the suite
/// reads it back from the judgment list.
fn judged_value(outcome: &ScenarioOutcome, require_name: &str) -> f64 {
    outcome
        .judgments
        .iter()
        .find(|j| j.require == require_name)
        .map(|j| j.actual)
        .expect("matrix cells carry their headline require")
}

/// The full duty × length sweep, fanned out through `exec` (bit-identical
/// across worker counts: per-cell seeds come from the cell index, and cells
/// are reassembled in grid order).
pub(crate) fn oven_sweep(seed: u64, scale: Scale, exec: &Executor) -> ScenarioRun {
    let packets = oven_cell_packets(scale);
    let outcomes: Vec<(OvenCell, ScenarioOutcome)> = exec.map_with(
        oven_cells(),
        SimScratch::new,
        move |scratch, index, cell| {
            let script = oven_cell(trial_seed(STREAM_OVEN, index as u64, seed), cell, packets);
            let compiled = script
                .compile()
                .unwrap_or_else(|e| panic!("oven cell must compile: {e}"));
            (cell, compiled.run_in(scratch))
        },
    );

    // Judgments: every cell's, then the sweep-shape conditions. Intact
    // delivery must not *improve* when packets get longer at a fixed duty
    // (longer packets overlap more bursts — Zarikoff & Leith), within a
    // small stochastic tolerance; and any oven row must sit below the
    // clean control row.
    let intact = |duty: u32, body: u16| -> f64 {
        let (_, outcome) = outcomes
            .iter()
            .find(|(c, _)| c.duty_percent == duty && c.body_bytes == body)
            .expect("full grid");
        let name = if duty == 0 {
            "clean-control-row"
        } else {
            "link-alive"
        };
        judged_value(outcome, name)
    };
    let mut judgments: Vec<Judgment> = Vec::new();
    for (_, outcome) in &outcomes {
        judgments.extend(outcome.judgments.iter().cloned());
    }
    for &duty in &OVEN_DUTIES {
        if duty == 0 {
            continue;
        }
        for pair in OVEN_BODIES.windows(2) {
            let (short, long) = (pair[0], pair[1]);
            judgments.push(suite_judgment(
                "loss-grows-with-length",
                format!("intact({duty}% duty, {long}B) - intact({duty}% duty, {short}B)"),
                intact(duty, long) - intact(duty, short),
                Cmp::Le,
                0.02,
            ));
        }
        let longest = OVEN_BODIES[OVEN_BODIES.len() - 1];
        judgments.push(suite_judgment(
            "oven-row-below-control",
            format!("intact({duty}% duty, {longest}B) - intact(0% duty, {longest}B)"),
            intact(duty, longest) - intact(0, longest),
            Cmp::Lt,
            0.0,
        ));
    }

    // The matrix table: rows = duty, columns = packet length, cells =
    // intact-delivery percent.
    let mut columns = vec![Column::new("duty", "duty").width(8).left()];
    for &body in &OVEN_BODIES {
        columns.push(
            Column::new("len", Box::leak(format!("{body}B").into_boxed_str()))
                .width(8)
                .precision(1)
                .suffix("%"),
        );
    }
    let rows = OVEN_DUTIES
        .iter()
        .map(|&duty| {
            let mut row: Vec<Cell> = vec![Cell::Str(format!("{duty}%"))];
            for &body in &OVEN_BODIES {
                row.push(Cell::Float(intact(duty, body) * 100.0));
            }
            row
        })
        .collect();
    let table = Table {
        heading: Some(String::from(
            "Error-free delivery vs interferer duty cycle and packet length",
        )),
        columns,
        rows,
    };

    let blocks = vec![
        Block::Note(format!(
            "Scenario \"oven-sweep\" (pulsed interference, after Zarikoff & Leith)\n\
             {} packets per cell, magnetron-like 16.5 ms period, in-band burst at {OVEN_POWER_DBM} dBm:",
            packets
        )),
        Block::Blank,
        Block::Table(table),
        Block::Blank,
        Block::Note(judgment_lines(&judgments)),
    ];
    let total = outcomes
        .iter()
        .map(|(_, o)| o.result.packets_transmitted.iter().sum::<u64>())
        .sum();
    ScenarioRun {
        report: Report::new(
            "oven-sweep",
            "Section 7.3 extension (pulsed interference)",
            total,
            blocks,
        ),
        judgments,
    }
}

/// The dense-cell capture matrix, fanned out through `exec`.
pub(crate) fn dense_cell_matrix(seed: u64, scale: Scale, exec: &Executor) -> ScenarioRun {
    let packets = dense_cell_packets(scale);
    let outcomes: Vec<(DenseCell, ScenarioOutcome, f64)> = exec.map_with(
        dense_cells(),
        SimScratch::new,
        move |scratch, index, cell| {
            let script = dense_cell(trial_seed(STREAM_DENSE, index as u64, seed), cell, packets);
            let compiled = script
                .compile()
                .unwrap_or_else(|e| panic!("dense cell must compile: {e}"));
            let outcome = compiled.run_in(scratch);
            let rx = outcome.station_id("rx").expect("rx exists");
            let tx = outcome.station_id("tx").expect("tx exists");
            let delivered = outcome
                .result
                .trace(rx)
                .records
                .iter()
                .filter(|r| r.truth.expect("sim trace").src_station == tx)
                .count() as f64;
            let delivery = delivered / outcome.result.packets_transmitted[tx] as f64;
            (cell, outcome, delivery)
        },
    );

    let delivery = |near: f64, far: f64| -> f64 {
        outcomes
            .iter()
            .find(|(c, _, _)| c.near_ft == near && c.far_ft == far)
            .map(|(_, _, d)| *d)
            .expect("full grid")
    };
    let mut judgments: Vec<Judgment> = Vec::new();
    for (_, outcome, _) in &outcomes {
        judgments.extend(outcome.judgments.iter().cloned());
    }
    // Capture protects with distance: for each sender distance, delivery
    // must not degrade as the rival moves away; and the far-rival column
    // must be essentially clean for the 7 ft link (the rival is > 6 dB
    // down, every collision resolves in the test packet's favour).
    for &near in &DENSE_NEAR_FT {
        for pair in DENSE_FAR_FT.windows(2) {
            let (close, far) = (pair[0], pair[1]);
            judgments.push(suite_judgment(
                "capture-improves-with-rival-distance",
                format!("delivery({near} ft link, rival {close} ft) - delivery(rival {far} ft)"),
                delivery(near, close) - delivery(near, far),
                Cmp::Le,
                0.02,
            ));
        }
    }
    judgments.push(suite_judgment(
        "strong-link-rides-out-the-far-rival",
        format!(
            "delivery(7 ft link, rival {} ft)",
            DENSE_FAR_FT[DENSE_FAR_FT.len() - 1]
        ),
        delivery(7.0, DENSE_FAR_FT[DENSE_FAR_FT.len() - 1]),
        Cmp::Ge,
        0.95,
    ));

    let mut columns = vec![Column::new("link", "link").width(10).left()];
    for &far in &DENSE_FAR_FT {
        columns.push(
            Column::new(
                "far",
                Box::leak(format!("rival {far:.0}ft").into_boxed_str()),
            )
            .width(12)
            .precision(1)
            .suffix("%"),
        );
    }
    let rows = DENSE_NEAR_FT
        .iter()
        .map(|&near| {
            let mut row: Vec<Cell> = vec![Cell::Str(format!("{near:.0} ft"))];
            for &far in &DENSE_FAR_FT {
                row.push(Cell::Float(delivery(near, far) * 100.0));
            }
            row
        })
        .collect();
    let table = Table {
        heading: Some(String::from(
            "Test-series delivery vs rival distance (capture margin 6 dB)",
        )),
        columns,
        rows,
    };

    let blocks = vec![
        Block::Note(format!(
            "Scenario \"dense-cell\" (capture matrix, Section 7.4)\n\
             {packets} packets per cell; deaf sender and rival, so carrier sense\n\
             never defers and the capture margin alone settles every collision:",
        )),
        Block::Blank,
        Block::Table(table),
        Block::Blank,
        Block::Note(judgment_lines(&judgments)),
    ];
    let total = outcomes
        .iter()
        .map(|(_, o, _)| o.result.packets_transmitted.iter().sum::<u64>())
        .sum();
    ScenarioRun {
        report: Report::new(
            "dense-cell",
            "Section 7.4 (capture vs distance)",
            total,
            blocks,
        ),
        judgments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wavelan_analysis::json;

    /// Every script the library runs: the three single runs and every oven
    /// and dense-cell matrix cell.
    fn library_scripts() -> Vec<ScenarioScript> {
        let scale = Scale::Smoke;
        let mut scripts = vec![
            capture_chatter(1, scale, THRESHOLD_25),
            equal_power(1),
            walk_by(1, scale),
        ];
        scripts.extend(oven_cells().into_iter().map(|c| oven_cell(1, c, 1)));
        scripts.extend(dense_cells().into_iter().map(|c| dense_cell(1, c, 1)));
        scripts
    }

    #[test]
    fn every_library_spec_round_trips_through_spec_json() {
        for script in library_scripts() {
            let text = script.spec.to_json();
            let parsed = json::parse(&text).expect("spec JSON parses");
            let back = ScenarioSpec::from_value(&parsed)
                .unwrap_or_else(|e| panic!("{}: {e}", script.spec.name));
            assert_eq!(back, script.spec, "{}", script.spec.name);
        }
    }

    // The matches below are exhaustive on purpose: a new variant does not
    // compile until it gets an arm (and a name in the test's `vocabulary`),
    // and the test then fails until some library scenario uses it.

    fn action_name(action: &Action) -> &'static str {
        match action {
            Action::Move { .. } => "move",
            Action::Transmit { .. } => "transmit",
            Action::Wait { .. } => "wait",
            Action::Assert { .. } => "assert",
        }
    }

    fn quantity_name(quantity: &Quantity) -> &'static str {
        match quantity {
            Quantity::Transmitted { .. } => "transmitted",
            Quantity::Delivered { .. } => "delivered",
            Quantity::Truncated { .. } => "truncated",
            Quantity::CapturesMade { .. } => "captures_made",
            Quantity::Deferrals { .. } => "deferrals",
            Quantity::OverlapCount => "overlap_count",
            Quantity::DeliveryRatio { .. } => "delivery_ratio",
            Quantity::IntactRatio { .. } => "intact_ratio",
        }
    }

    #[test]
    fn every_vocabulary_variant_has_a_library_user() {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for script in library_scripts() {
            seen.extend(script.requires.iter().map(|r| quantity_name(&r.quantity)));
            for event in &script.events {
                seen.insert(action_name(&event.action));
                if let Action::Assert { require } = &event.action {
                    seen.insert(quantity_name(&require.quantity));
                }
            }
        }
        let vocabulary = [
            "move",
            "transmit",
            "wait",
            "assert",
            "transmitted",
            "delivered",
            "truncated",
            "captures_made",
            "deferrals",
            "overlap_count",
            "delivery_ratio",
            "intact_ratio",
        ];
        let unused: Vec<&str> = vocabulary
            .iter()
            .copied()
            .filter(|name| !seen.contains(name))
            .collect();
        assert!(unused.is_empty(), "no library scenario uses {unused:?}");
        // Every name a match can return is listed above.
        let unlisted: Vec<&&str> = seen.iter().filter(|n| !vocabulary.contains(n)).collect();
        assert!(unlisted.is_empty(), "unlisted vocabulary {unlisted:?}");
    }
}
