//! Execution and judging: run the compiled timetable against the simulator,
//! evaluate every `assert` probe and final `require`, and produce structured
//! pass/fail [`Judgment`]s whose failure diagnostics name the violated
//! condition and quote the relevant trace slice.

use super::compile::CompiledScenario;
use super::model::{Cmp, Quantity};
use wavelan_sim::{SimScratch, SnapshotData, StationId, Trace, TrialResult};

/// The verdict on one judged condition.
#[derive(Debug, Clone)]
pub struct Judgment {
    /// The require's name.
    pub require: String,
    /// The `assert` event that carried it (None for a final require).
    pub event: Option<String>,
    /// The quantity, rendered with station names inline.
    pub quantity: String,
    /// The measured value.
    pub actual: f64,
    /// The comparison.
    pub cmp: Cmp,
    /// The bound.
    pub bound: f64,
    /// Whether the condition held.
    pub passed: bool,
    /// Diagnostic context (populated only on failure): the counters and the
    /// relevant trace slice at judging time.
    pub context: String,
}

impl Judgment {
    /// One `PASS`/`FAIL` line for transcripts.
    pub fn line(&self) -> String {
        let verdict = if self.passed { "PASS" } else { "FAIL" };
        let site = match &self.event {
            Some(e) => format!(" [assert {e}]"),
            None => String::new(),
        };
        format!(
            "{verdict} {}{site}: {} = {} (want {} {})",
            self.require,
            self.quantity,
            fmt_value(self.actual),
            self.cmp.symbol(),
            fmt_value(self.bound),
        )
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

/// Everything a scenario run produced: the raw trial plus the verdicts.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Verdicts: `assert` probes in firing order, then final requires in
    /// declaration order.
    pub judgments: Vec<Judgment>,
    /// The underlying trial (traces, counters, snapshots).
    pub result: TrialResult,
    /// Station names, indexed by sim [`StationId`].
    pub station_names: Vec<String>,
}

impl ScenarioOutcome {
    /// Whether every judged condition held.
    pub fn passed(&self) -> bool {
        self.judgments.iter().all(|j| j.passed)
    }

    /// The sim station id bound to a script station name.
    pub(crate) fn station_id(&self, name: &str) -> Option<StationId> {
        self.station_names.iter().position(|n| n == name)
    }
}

impl CompiledScenario {
    /// Runs the scenario to quiescence and judges every condition.
    pub fn run(&self) -> ScenarioOutcome {
        let mut scratch = SimScratch::new();
        self.run_in(&mut scratch)
    }

    /// [`CompiledScenario::run`] with a caller-owned scratch (bit-identical).
    pub(crate) fn run_in(&self, scratch: &mut SimScratch) -> ScenarioOutcome {
        let result = self
            .sim
            .run_scripted(&self.directives, self.limit_ns, scratch);
        let mut judgments = Vec::with_capacity(self.probes.len() + self.requires.len());
        for probe in &self.probes {
            let snap = result
                .snapshots
                .iter()
                .find(|s| s.id == probe.snapshot_id)
                .expect("every probe's snapshot directive fires within the limit");
            judgments.push(self.judge(
                &probe.require,
                Some(probe.event.clone()),
                &result,
                Some(snap),
            ));
        }
        for require in &self.requires {
            judgments.push(self.judge(require, None, &result, None));
        }
        ScenarioOutcome {
            name: self.name.clone(),
            judgments,
            result,
            station_names: self.station_names.clone(),
        }
    }

    fn judge(
        &self,
        require: &super::model::Require,
        event: Option<String>,
        result: &TrialResult,
        snap: Option<&SnapshotData>,
    ) -> Judgment {
        let eval = Evaluator {
            compiled: self,
            result,
            snap,
        };
        let actual = eval.quantity(&require.quantity);
        let passed = require.cmp.holds(actual, require.bound);
        Judgment {
            require: require.name.clone(),
            event,
            quantity: require.quantity.describe(),
            actual,
            cmp: require.cmp,
            bound: require.bound,
            passed,
            context: if passed {
                String::new()
            } else {
                eval.context(&require.quantity)
            },
        }
    }
}

/// Quantity evaluation against either the final trial state or a mid-run
/// snapshot (where trace-based quantities read only the prefix the snapshot
/// froze).
struct Evaluator<'a> {
    compiled: &'a CompiledScenario,
    result: &'a TrialResult,
    snap: Option<&'a SnapshotData>,
}

impl Evaluator<'_> {
    fn id(&self, name: &str) -> StationId {
        self.compiled
            .station_id(name)
            .expect("station names were validated at compile time")
    }

    /// The trace of `receiver` plus how many of its records are visible at
    /// judging time (the snapshot prefix, or all of them).
    fn trace_view(&self, receiver: StationId) -> (&Trace, usize) {
        let trace = self.result.trace(receiver);
        let len = match self.snap {
            Some(s) => s.stations[receiver].trace_len.min(trace.records.len()),
            None => trace.records.len(),
        };
        (trace, len)
    }

    /// Count of visible trace records from `from` (all sources if None)
    /// matching `pred`.
    fn trace_count(
        &self,
        receiver: StationId,
        from: Option<StationId>,
        pred: impl Fn(&wavelan_sim::TraceRecord) -> bool,
    ) -> u64 {
        let (trace, len) = self.trace_view(receiver);
        trace.records[..len]
            .iter()
            .filter(|r| {
                let truth = r.truth.expect("simulated traces carry ground truth");
                from.is_none_or(|f| truth.src_station == f) && pred(r)
            })
            .count() as u64
    }

    fn counter(&self, station: StationId, which: Ctr) -> u64 {
        match self.snap {
            Some(s) => {
                let c = &s.stations[station];
                match which {
                    Ctr::Transmitted => c.transmitted,
                    Ctr::Delivered => c.delivered,
                    Ctr::Truncated => c.truncated,
                    Ctr::CapturesMade => c.captures_made,
                    Ctr::Deferrals => c.mac.deferrals(),
                    Ctr::MacDrops => c.dropped_by_mac,
                }
            }
            None => {
                let r = self.result;
                match which {
                    Ctr::Transmitted => r.packets_transmitted[station],
                    Ctr::Delivered => r.packets_delivered[station],
                    Ctr::Truncated => r.packets_truncated_rx[station],
                    Ctr::CapturesMade => r.captures_made[station],
                    Ctr::Deferrals => r.mac_stats[station].deferrals(),
                    Ctr::MacDrops => r.packets_dropped_by_mac[station],
                }
            }
        }
    }

    fn delivered_from(&self, receiver: &str, from: &str) -> u64 {
        self.trace_count(self.id(receiver), Some(self.id(from)), |_| true)
    }

    fn intact_from(&self, receiver: &str, from: &str) -> u64 {
        self.trace_count(self.id(receiver), Some(self.id(from)), |r| {
            let t = r.truth.expect("simulated traces carry ground truth");
            !t.truncated && t.corrupted_bits == 0
        })
    }

    fn quantity(&self, q: &Quantity) -> f64 {
        match q {
            Quantity::Transmitted { station } => {
                self.counter(self.id(station), Ctr::Transmitted) as f64
            }
            Quantity::Delivered { receiver, from } => match from {
                None => self.counter(self.id(receiver), Ctr::Delivered) as f64,
                Some(f) => self.delivered_from(receiver, f) as f64,
            },
            Quantity::Truncated { receiver, from } => match from {
                None => self.counter(self.id(receiver), Ctr::Truncated) as f64,
                Some(f) => self.trace_count(self.id(receiver), Some(self.id(f)), |r| {
                    r.truth
                        .expect("simulated traces carry ground truth")
                        .truncated
                }) as f64,
            },
            Quantity::CapturesMade { receiver } => {
                self.counter(self.id(receiver), Ctr::CapturesMade) as f64
            }
            Quantity::Deferrals { station } => {
                self.counter(self.id(station), Ctr::Deferrals) as f64
            }
            Quantity::OverlapCount => match self.snap {
                Some(s) => s.overlap_count as f64,
                None => self.result.overlap_count as f64,
            },
            Quantity::DeliveryRatio { receiver, sender } => {
                let sent = self.counter(self.id(sender), Ctr::Transmitted);
                if sent == 0 {
                    0.0
                } else {
                    self.delivered_from(receiver, sender) as f64 / sent as f64
                }
            }
            Quantity::IntactRatio { receiver, sender } => {
                let sent = self.counter(self.id(sender), Ctr::Transmitted);
                if sent == 0 {
                    0.0
                } else {
                    self.intact_from(receiver, sender) as f64 / sent as f64
                }
            }
        }
    }

    /// Failure context: the counters of every referenced station plus the
    /// tail of the relevant trace slice at judging time.
    fn context(&self, q: &Quantity) -> String {
        let mut out = String::new();
        let at = match self.snap {
            Some(s) => s.at_ns,
            None => self.result.ended_at_ns,
        };
        out.push_str(&format!(
            "  at t={:.3} ms, overlap_count={}\n",
            at as f64 / 1e6,
            match self.snap {
                Some(s) => s.overlap_count,
                None => self.result.overlap_count,
            }
        ));
        for (name, _) in q.station_refs() {
            let id = self.id(name);
            out.push_str(&format!(
                "  station {name:?} (id {id}): transmitted={} delivered={} truncated={} \
                 captures_made={} deferrals={} mac_drops={}\n",
                self.counter(id, Ctr::Transmitted),
                self.counter(id, Ctr::Delivered),
                self.counter(id, Ctr::Truncated),
                self.counter(id, Ctr::CapturesMade),
                self.counter(id, Ctr::Deferrals),
                self.counter(id, Ctr::MacDrops),
            ));
        }
        // Quote the tail of the first referenced trace: the records nearest
        // the judging instant are the ones that explain the number.
        for (name, _) in q.station_refs() {
            let id = self.id(name);
            if self.result.traces[id].is_none() {
                continue;
            }
            let (trace, len) = self.trace_view(id);
            let tail_start = len.saturating_sub(5);
            out.push_str(&format!(
                "  trace slice of {name:?} (records {tail_start}..{len} of {len} visible):\n"
            ));
            for r in &trace.records[tail_start..len] {
                let truth = r.truth.expect("simulated traces carry ground truth");
                out.push_str(&format!(
                    "    t={:.3} ms src={} seq={:?} bytes={} corrupted_bits={}{}\n",
                    r.time_ns as f64 / 1e6,
                    truth.src_station,
                    truth.seq,
                    r.bytes.len(),
                    truth.corrupted_bits,
                    if truth.truncated { " TRUNCATED" } else { "" },
                ));
            }
            break;
        }
        out.pop();
        out
    }
}

/// A counter selector for [`Evaluator::counter`].
#[derive(Debug, Clone, Copy)]
enum Ctr {
    Transmitted,
    Delivered,
    Truncated,
    CapturesMade,
    Deferrals,
    MacDrops,
}
