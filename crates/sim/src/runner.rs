//! Scenario assembly and trial execution: the discrete-event loop that plays
//! the role of "running the experiment for a while" in the paper.

use crate::event::{Event, EventQueue};
use crate::floorplan::FloorPlan;
use crate::frame::FrameRecipe;
use crate::gains::LinkGains;
use crate::geometry::Point;
use crate::medium::{ns_to_bits, AmbientSource, Medium, Transmission};
use crate::propagation::Propagation;
use crate::station::{RxReservation, Station, StationConfig, StationId, Traffic};
use crate::trace::{BufferSink, GroundTruth, RecordView, Trace, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wavelan_mac::csma::{MacStats, TxAction};
use wavelan_phy::agc::power_to_level_units;
use wavelan_phy::baseband::gaussian;
use wavelan_phy::interference::{Emission, InterferenceKind};
use wavelan_phy::link::{LinkModel, PacketOutcome};
use wavelan_phy::scratch::RxScratch;

/// Default for [`Scenario::capture_margin_db`]: how much stronger (dB) a
/// later-arriving packet must be to capture the receiver away from the
/// packet it is currently receiving. The paper conjectures exactly this
/// behaviour: "a 'capture effect' inherent in its multipath-resistant
/// receiver design" (Section 7.4). Set the field to `f64::INFINITY` to
/// ablate capture entirely.
pub const CAPTURE_MARGIN_DB: f64 = 6.0;

/// Default for [`Scenario::time_limit_ns`]: an hour of virtual time.
const TIME_LIMIT_NS: u64 = 3_600_000_000_000;

/// A complete experimental setup, ready to run.
#[derive(Debug)]
pub struct Scenario {
    /// Building geometry.
    pub floorplan: FloorPlan,
    /// Slow-scale propagation model.
    pub propagation: Propagation,
    /// Per-packet reception model.
    pub link: LinkModel,
    /// Stations, indexed by [`StationId`].
    pub stations: Vec<StationConfig>,
    /// Non-WaveLAN interference sources.
    pub ambient: Vec<AmbientSource>,
    /// Capture margin, dB (see [`CAPTURE_MARGIN_DB`]).
    pub capture_margin_db: f64,
    /// Virtual-time bound of [`Scenario::run`], [`Scenario::run_in`] and
    /// [`Scenario::run_streamed`], ns (an hour by default); it matters where
    /// jammers starve the primary station of its quota.
    pub time_limit_ns: u64,
    /// Master seed: same seed → bit-identical trial.
    pub seed: u64,
}

/// Fluent construction of a [`Scenario`].
#[derive(Debug)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Starts a scenario with an open floor plan, the indoor propagation
    /// model, the default link calibration, and the given seed.
    pub fn new(seed: u64) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                floorplan: FloorPlan::open(),
                propagation: Propagation::indoor(seed),
                link: LinkModel::default(),
                stations: Vec::new(),
                ambient: Vec::new(),
                capture_margin_db: CAPTURE_MARGIN_DB,
                time_limit_ns: TIME_LIMIT_NS,
                seed,
            },
        }
    }

    /// Replaces the floor plan.
    pub fn floorplan(mut self, plan: FloorPlan) -> ScenarioBuilder {
        self.scenario.floorplan = plan;
        self
    }

    /// Adds a station; returns its id.
    pub fn station(&mut self, config: StationConfig) -> StationId {
        self.scenario.stations.push(config);
        self.scenario.stations.len() - 1
    }

    /// The id the *next* [`ScenarioBuilder::station`] call will return —
    /// for wiring mutually-peered stations before both exist.
    pub fn next_station_id(&self) -> StationId {
        self.scenario.stations.len()
    }

    /// Adds an ambient interference source.
    pub fn ambient(&mut self, source: AmbientSource) -> &mut ScenarioBuilder {
        self.scenario.ambient.push(source);
        self
    }

    /// Finishes construction.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}

/// Reusable per-worker simulation workspace: the phy-layer [`RxScratch`]
/// plus the emission assembly buffer, so steady-state packet resolution
/// performs zero heap allocations.
///
/// Ownership rules: one `SimScratch` per worker thread (see
/// `wavelan_core::executor::Executor::map_with`). Reusing one scratch across
/// trials and seeds is always safe — it carries no trial-observable state,
/// so results stay bit-identical to scratch-free runs.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Phy-layer reception workspace (segment timeline, math memos,
    /// error-bit buffer pool).
    pub rx: RxScratch,
    /// Emission assembly buffer reused across packet resolutions.
    emissions: Vec<Emission>,
    /// Delivered-bytes assembly buffer for trace records: a logged
    /// reception's frame is written here from its recipe, corrupted and
    /// truncated in place, and lent to the sink as a [`RecordView`], so
    /// streaming capture allocates nothing per packet.
    record_bytes: Vec<u8>,
}

impl SimScratch {
    /// A fresh workspace; buffers grow to steady-state capacity over the
    /// first few packets.
    pub fn new() -> SimScratch {
        SimScratch::default()
    }
}

/// One timed instruction in a scripted run: at `at_ns`, apply `op` to the
/// running trial. Directives are the compiled form of the event-DAG
/// scenario layer (`wavelan-core::scenario`); they fire inside the
/// discrete-event loop in schedule order (ties broken by table order), so a
/// scripted run is exactly as deterministic as an unscripted one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Directive {
    /// Absolute virtual time at which the directive fires, ns.
    pub at_ns: u64,
    /// What to do.
    pub op: DirectiveOp,
}

/// The operations a scripted run can perform mid-trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DirectiveOp {
    /// Teleport a station to a new position (a walk is a run of these).
    MoveStation {
        /// Station to move.
        station: StationId,
        /// New position.
        to: Point,
    },
    /// Hand `packets` frames to a [`Traffic::Scripted`] station, spaced
    /// `spacing_ns` apart; frames that find the previous one still pending
    /// queue in the station's backlog.
    Enqueue {
        /// Scripted station.
        station: StationId,
        /// Number of frames.
        packets: u64,
        /// Inter-frame application spacing, ns.
        spacing_ns: u64,
    },
    /// Record a [`SnapshotData`] of every counter at this instant (the
    /// scenario layer's mid-run `assert` probes read these).
    Snapshot {
        /// Caller-chosen snapshot id, returned in [`SnapshotData::id`].
        id: usize,
    },
}

/// Per-station counters frozen by a [`DirectiveOp::Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StationCounters {
    /// Packets put on the air.
    pub transmitted: u64,
    /// Packets delivered up the receive path.
    pub delivered: u64,
    /// Of the delivered, cut short (capture or unlock).
    pub truncated: u64,
    /// Locked packets abandoned for a stronger one.
    pub captures_made: u64,
    /// MAC-abandoned frames.
    pub dropped_by_mac: u64,
    /// MAC counters (attempts / collisions-i.e.-deferrals / transmissions).
    pub mac: MacStats,
    /// Trace records logged so far (usize::MAX if not recording).
    pub trace_len: usize,
}

/// Everything a mid-run snapshot captures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotData {
    /// Caller-chosen id from the directive.
    pub id: usize,
    /// Virtual time of the snapshot, ns.
    pub at_ns: u64,
    /// Per-station counters, indexed by [`StationId`].
    pub stations: Vec<StationCounters>,
    /// Global overlap count so far (see [`TrialResult::overlap_count`]).
    pub overlap_count: u64,
}

/// Results of one trial.
#[derive(Debug)]
pub struct TrialResult {
    /// Per-station promiscuous traces (None for non-recording stations).
    pub traces: Vec<Option<Trace>>,
    /// Per-station count of packets put on the air.
    pub packets_transmitted: Vec<u64>,
    /// Per-station MAC-abandoned frames.
    pub packets_dropped_by_mac: Vec<u64>,
    /// Per-station packets masked by the receive/quality thresholds.
    pub packets_filtered: Vec<u64>,
    /// Per-station offers rejected while the receiver was busy.
    pub offers_rejected_busy: Vec<u64>,
    /// Per-station acquired-but-lost packets (preamble miss / host overrun).
    pub rx_lost: Vec<u64>,
    /// Per-station MAC counters (attempts / collisions / transmissions).
    pub mac_stats: Vec<MacStats>,
    /// Per-station packets delivered up the receive path (both thresholds
    /// passed), recorded whether or not the station keeps a trace.
    pub packets_delivered: Vec<u64>,
    /// Per-station delivered-but-cut-short packets.
    pub packets_truncated_rx: Vec<u64>,
    /// Per-station count of capture events: a locked packet abandoned for a
    /// ≥-margin stronger one (Section 7.4).
    pub captures_made: Vec<u64>,
    /// Times a station began transmitting while a foreign transmission was
    /// already on the air — the ground truth the PR 4 mutual-CSMA-deferral
    /// bug silently zeroed. A capture test whose choreography defers instead
    /// of overlapping shows up here as `overlap_count == 0`.
    pub overlap_count: u64,
    /// Counter snapshots taken by [`DirectiveOp::Snapshot`], in firing
    /// order (empty for unscripted runs).
    pub snapshots: Vec<SnapshotData>,
    /// Virtual time at which the trial ended, ns.
    pub ended_at_ns: u64,
}

impl TrialResult {
    /// The trace recorded by `station`; panics if it wasn't recording.
    pub fn trace(&self, station: StationId) -> &Trace {
        self.traces[station]
            .as_ref()
            .expect("station did not record a trace")
    }
}

/// Internal event-loop state.
struct Runner<'s> {
    scenario: &'s Scenario,
    stations: Vec<Station>,
    medium: Medium,
    queue: EventQueue,
    rng: StdRng,
    /// Received powers between the current placements.
    gains: LinkGains,
    /// The station whose completed transmissions drive the stop condition.
    primary: usize,
    /// TxEnd events resolved for the primary station.
    primary_completed: u64,
    /// Scripted directive table (empty for unscripted runs).
    directives: &'s [Directive],
    /// Snapshots recorded so far.
    snapshots: Vec<SnapshotData>,
    /// Transmissions begun while foreign ones were already on the air.
    overlap_count: u64,
    /// Reusable buffers (caller-owned so they survive across trials).
    scratch: &'s mut SimScratch,
    /// Where trace records go as they are resolved (buffered or streaming).
    sink: &'s mut dyn TraceSink,
}

impl Scenario {
    /// Runs until station `primary` has completed `n_packets` transmissions,
    /// or until [`Scenario::time_limit_ns`] of virtual time elapses,
    /// whichever is first.
    pub fn run(&self, primary: StationId, n_packets: u64) -> TrialResult {
        self.run_with_limit(primary, n_packets, self.time_limit_ns)
    }

    /// [`Scenario::run`] with a caller-owned [`SimScratch`], so buffers and
    /// memo caches persist across trials. Bit-identical to `run`.
    pub fn run_in(
        &self,
        primary: StationId,
        n_packets: u64,
        scratch: &mut SimScratch,
    ) -> TrialResult {
        self.run_inner(primary, n_packets, self.time_limit_ns, &[], scratch)
    }

    /// Runs for a fixed amount of virtual time regardless of progress.
    pub fn run_for(&self, duration_ns: u64) -> TrialResult {
        self.run_with_limit(usize::MAX, u64::MAX, duration_ns)
    }

    /// The general form: stop when `primary` completes `n_packets`
    /// transmissions or virtual time passes `limit_ns`.
    pub fn run_with_limit(&self, primary: StationId, n_packets: u64, limit_ns: u64) -> TrialResult {
        self.run_inner(primary, n_packets, limit_ns, &[], &mut SimScratch::new())
    }

    /// Runs a **scripted** trial: the directive table is merged into the
    /// event queue (each directive fires at its `at_ns`, table order breaking
    /// ties) and the trial runs until the queue is quiescent or `limit_ns`
    /// passes. Same seed + same directives ⇒ bit-identical
    /// [`TrialResult`] — scripting adds no RNG draws of its own.
    pub fn run_scripted(
        &self,
        directives: &[Directive],
        limit_ns: u64,
        scratch: &mut SimScratch,
    ) -> TrialResult {
        self.run_inner(usize::MAX, u64::MAX, limit_ns, directives, scratch)
    }

    /// Runs a trial **streaming**: every trace record is pushed through
    /// `sink` as it is resolved, in arrival order, and nothing is buffered —
    /// the returned result's `traces` are all `None` (counters and MAC stats
    /// are filled in as usual). With a [`BufferSink`] this is bit-identical
    /// to [`Scenario::run_in`]; with a folding sink it runs in constant
    /// memory regardless of trial length.
    pub fn run_streamed(
        &self,
        primary: StationId,
        n_packets: u64,
        scratch: &mut SimScratch,
        sink: &mut dyn TraceSink,
    ) -> TrialResult {
        self.run_sunk(primary, n_packets, self.time_limit_ns, &[], scratch, sink)
    }

    /// The buffered trial: a [`BufferSink`] collects every record and the
    /// per-station [`Trace`]s land back on the result, exactly the classic
    /// whole-log capture.
    fn run_inner(
        &self,
        primary: StationId,
        n_packets: u64,
        limit_ns: u64,
        directives: &[Directive],
        scratch: &mut SimScratch,
    ) -> TrialResult {
        let mut sink = BufferSink::new(self.stations.iter().map(|s| s.record_trace));
        let mut result =
            self.run_sunk(primary, n_packets, limit_ns, directives, scratch, &mut sink);
        result.traces = sink.into_traces();
        for (trace, &dropped) in result.traces.iter_mut().zip(&result.packets_dropped_by_mac) {
            if let Some(trace) = trace {
                trace.packets_dropped_by_mac = dropped;
            }
        }
        result
    }

    fn run_sunk(
        &self,
        primary: StationId,
        n_packets: u64,
        limit_ns: u64,
        directives: &[Directive],
        scratch: &mut SimScratch,
        sink: &mut dyn TraceSink,
    ) -> TrialResult {
        let mut runner = Runner {
            scenario: self,
            stations: self.stations.iter().cloned().map(Station::new).collect(),
            medium: Medium::new(),
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(self.seed),
            gains: LinkGains::new(self),
            primary,
            primary_completed: 0,
            directives,
            snapshots: Vec::new(),
            overlap_count: 0,
            scratch,
            sink,
        };
        // Directives enter the queue first so a directive at time t fires
        // before same-time traffic scheduled below (insertion order breaks
        // ties deterministically).
        for (index, d) in directives.iter().enumerate() {
            runner.queue.schedule(d.at_ns, Event::Directive { index });
        }
        // Kick off traffic with small per-station offsets to break symmetry.
        // Scripted stations stay quiet: their frames arrive by directive.
        for (i, s) in runner.stations.iter().enumerate() {
            if !matches!(s.config.traffic, Traffic::None | Traffic::Scripted { .. }) {
                runner
                    .queue
                    .schedule(1_000 * (i as u64 + 1), Event::AppSend { station: i });
            }
        }

        let mut now = 0;
        while let Some((t, event)) = runner.queue.pop() {
            now = t;
            if now > limit_ns {
                break;
            }
            runner.dispatch(now, event);
            if primary < runner.stations.len() && runner.primary_completed >= n_packets {
                break;
            }
        }

        TrialResult {
            packets_transmitted: runner
                .stations
                .iter()
                .map(|s| s.packets_transmitted)
                .collect(),
            packets_dropped_by_mac: runner
                .stations
                .iter()
                .map(|s| s.packets_dropped_by_mac)
                .collect(),
            packets_filtered: runner.stations.iter().map(|s| s.packets_filtered).collect(),
            offers_rejected_busy: runner
                .stations
                .iter()
                .map(|s| s.offers_rejected_busy)
                .collect(),
            rx_lost: runner.stations.iter().map(|s| s.rx_lost).collect(),
            mac_stats: runner.stations.iter().map(|s| s.mac.stats()).collect(),
            packets_delivered: runner
                .stations
                .iter()
                .map(|s| s.packets_delivered)
                .collect(),
            packets_truncated_rx: runner
                .stations
                .iter()
                .map(|s| s.packets_truncated_rx)
                .collect(),
            captures_made: runner.stations.iter().map(|s| s.captures_made).collect(),
            overlap_count: runner.overlap_count,
            snapshots: runner.snapshots,
            // The sink owns the records; the buffered wrapper re-attaches
            // them, streamed runs leave every slot `None`.
            traces: runner.stations.iter().map(|_| None).collect(),
            ended_at_ns: now,
        }
    }
}

impl Runner<'_> {
    fn dispatch(&mut self, now: u64, event: Event) {
        match event {
            Event::AppSend { station } => self.on_app_send(now, station),
            Event::MacAttempt { station } => self.on_mac_attempt(now, station),
            Event::TxEnd { tx } => self.on_tx_end(now, tx),
            Event::Directive { index } => self.on_directive(now, index),
        }
    }

    fn on_directive(&mut self, now: u64, index: usize) {
        match self.directives[index].op {
            DirectiveOp::MoveStation { station, to } => {
                self.gains.move_station(self.scenario, station, to);
            }
            DirectiveOp::Enqueue {
                station,
                packets,
                spacing_ns,
            } => {
                for k in 0..packets {
                    self.queue
                        .schedule(now + k * spacing_ns, Event::AppSend { station });
                }
            }
            DirectiveOp::Snapshot { id } => {
                let stations = self
                    .stations
                    .iter()
                    .map(|s| StationCounters {
                        transmitted: s.packets_transmitted,
                        delivered: s.packets_delivered,
                        truncated: s.packets_truncated_rx,
                        captures_made: s.captures_made,
                        dropped_by_mac: s.packets_dropped_by_mac,
                        mac: s.mac.stats(),
                        trace_len: if s.config.record_trace {
                            s.records_logged as usize
                        } else {
                            usize::MAX
                        },
                    })
                    .collect();
                self.snapshots.push(SnapshotData {
                    id,
                    at_ns: now,
                    stations,
                    overlap_count: self.overlap_count,
                });
            }
        }
    }

    fn on_app_send(&mut self, now: u64, idx: usize) {
        let station = &mut self.stations[idx];
        match station.config.traffic {
            // A quiet station ignores stray sends: an `Enqueue` directive
            // aimed at it would otherwise put a frame with no peer on the MAC.
            Traffic::None => return,
            // Scripted frames behind a pending one wait in the backlog; the
            // TxEnd/Drop paths pump them out.
            Traffic::Scripted { .. } if station.pending_seq.is_some() => {
                station.backlog += 1;
                return;
            }
            _ => {}
        }
        if station.pending_seq.is_none() {
            station.pending_seq = Some(station.next_seq);
            station.next_seq += 1;
            self.queue.schedule(now, Event::MacAttempt { station: idx });
        }
        // Periodic traffic keeps its own clock; saturating traffic reschedules
        // from TxEnd instead.
        if let Traffic::Periodic { interval_ns, .. } = station.config.traffic {
            self.queue
                .schedule(now + interval_ns, Event::AppSend { station: idx });
        }
    }

    /// Carrier sense for `idx` at `now`: any foreign transmission whose
    /// sensed level (with AGC jitter) reaches the station's receive
    /// threshold. This is the mechanism of Figure 3's collision curve and of
    /// the Section 7.4 threshold-25 unmasking.
    fn carrier_busy(&mut self, now: u64, idx: usize) -> bool {
        let threshold = self.stations[idx].config.thresholds;
        let jitter_sigma = self.scenario.link.agc.jitter_sigma_units;
        let mut busy = false;
        for (_, t) in self.medium.active_at(now) {
            if t.src == idx {
                continue;
            }
            let power = self.gains.wavelan_dbm(t.src, idx);
            let sensed = power_to_level_units(power) + gaussian(&mut self.rng, jitter_sigma);
            if threshold.senses_carrier(sensed.round().clamp(0.0, 63.0) as u8) {
                busy = true;
                break;
            }
        }
        busy
    }

    fn on_mac_attempt(&mut self, now: u64, idx: usize) {
        let Some(seq) = self.stations[idx].pending_seq else {
            return;
        };
        // Half-duplex: the radio cannot start a frame while its own previous
        // frame is still on the air; re-attempt right after it ends.
        if let Some((_, own)) = self.medium.active_at(now).find(|(_, t)| t.src == idx) {
            let at_ns = own.end_ns + self.stations[idx].config.mac.ifs_ns;
            self.queue
                .schedule(at_ns, Event::MacAttempt { station: idx });
            return;
        }
        let busy = self.carrier_busy(now, idx);
        let station = &mut self.stations[idx];
        match station.mac.attempt(now, busy, &mut self.rng) {
            TxAction::Transmit => {
                station.pending_seq = None;
                station.packets_transmitted += 1;
                let peer = station.peer().expect("transmitting station has a peer");
                let config = &self.stations[idx].config;
                let frame = FrameRecipe {
                    kind: config.frame,
                    src: config.endpoint,
                    dst: self.stations[peer].config.endpoint,
                    network_id: config.network_id,
                    seq,
                };
                // Ground truth for the capture conformance suite: did this
                // transmission actually begin while a foreign one was on the
                // air? (Mutual CSMA deferral silently zeroes this.)
                if self.medium.active_at(now).any(|(_, t)| t.src != idx) {
                    self.overlap_count += 1;
                }
                let tx = Transmission::new(idx, now, frame);
                let id = self.medium.begin(tx);
                self.queue.schedule(tx.end_ns, Event::TxEnd { tx: id });
                for r in 0..self.stations.len() {
                    if r != idx {
                        self.offer_reservation(r, id, tx.start_ns, tx.end_ns, idx);
                    }
                }
            }
            TxAction::Retry { at_ns } => {
                self.queue
                    .schedule(at_ns, Event::MacAttempt { station: idx });
            }
            TxAction::Drop => {
                self.stations[idx].pending_seq = None;
                self.stations[idx].packets_dropped_by_mac += 1;
                // A saturating sender immediately queues the next frame; a
                // scripted one pumps its backlog.
                if matches!(self.stations[idx].config.traffic, Traffic::Saturate { .. }) {
                    self.queue.schedule(now, Event::AppSend { station: idx });
                } else {
                    self.pump_backlog(now, idx);
                }
            }
        }
    }

    fn on_tx_end(&mut self, now: u64, tx_id: usize) {
        let Some(&tx) = self.medium.get(tx_id) else {
            return;
        };
        for r in 0..self.stations.len() {
            if r != tx.src {
                self.resolve_reception(r, tx_id, &tx);
            }
        }
        // A saturating source turns the next packet around after one IFS; a
        // scripted source pumps any backlog the same way.
        if matches!(
            self.stations[tx.src].config.traffic,
            Traffic::Saturate { .. }
        ) {
            let ifs = self.stations[tx.src].config.mac.ifs_ns;
            self.queue
                .schedule(now + ifs, Event::AppSend { station: tx.src });
        } else {
            self.pump_backlog(now, tx.src);
        }
        if tx.src == self.primary {
            self.primary_completed += 1;
        }
        self.medium.prune(now, 20_000_000);
    }

    /// Releases the next backlogged scripted frame of `idx`, if any: one IFS
    /// after the frame that just ended (mirroring the saturating source).
    fn pump_backlog(&mut self, now: u64, idx: usize) {
        let station = &mut self.stations[idx];
        if !matches!(station.config.traffic, Traffic::Scripted { .. }) {
            return;
        }
        if station.backlog > 0 && station.pending_seq.is_none() {
            station.backlog -= 1;
            let ifs = station.config.mac.ifs_ns;
            self.queue
                .schedule(now + ifs, Event::AppSend { station: idx });
        }
    }

    /// Offers a just-started transmission to receiver `r`. This models the
    /// acquisition instant: the modem can lock a packet only at its start,
    /// so lock arbitration must happen here, not when the packet ends.
    fn offer_reservation(
        &mut self,
        r: usize,
        tx_id: usize,
        start_ns: u64,
        end_ns: u64,
        src: usize,
    ) {
        // Half-duplex: a station cannot acquire while transmitting.
        if self
            .medium
            .station_transmitting_during(r, start_ns, start_ns + 1)
        {
            return;
        }
        let signal_dbm = self.gains.wavelan_dbm(src, r);
        // The receive threshold masks weak packets at acquisition ("cleanly
        // filter": they simply never latch). The sensed level carries the
        // AGC's per-packet jitter, which is what makes the threshold
        // imperfect (Figure 3).
        let jitter = gaussian(&mut self.rng, self.scenario.link.agc.jitter_sigma_units);
        let sensed = (power_to_level_units(signal_dbm) + jitter)
            .round()
            .clamp(0.0, 63.0) as u8;
        let station = &mut self.stations[r];
        if !station.config.thresholds.senses_carrier(sensed) {
            station.packets_filtered += 1;
            return;
        }
        match station.reservation {
            Some(res) if res.end_ns > start_ns => {
                // Receiver busy: a much stronger packet captures it
                // (Section 7.4's conjectured capture effect); anything else
                // is just interference to the locked packet.
                if signal_dbm >= res.signal_dbm + self.scenario.capture_margin_db {
                    station.capture_cuts.insert(res.tx_id, start_ns);
                    station.captures_made += 1;
                    station.reservation = Some(RxReservation {
                        tx_id,
                        end_ns,
                        signal_dbm,
                    });
                } else {
                    station.offers_rejected_busy += 1;
                }
            }
            _ => {
                station.reservation = Some(RxReservation {
                    tx_id,
                    end_ns,
                    signal_dbm,
                });
            }
        }
    }

    fn resolve_reception(&mut self, r: usize, tx_id: usize, tx: &Transmission) {
        // Was this packet ever locked by receiver `r`?
        let capture_cut_ns = self.stations[r].capture_cuts.remove(&tx_id);
        let held_to_end = self.stations[r].reservation.map(|res| res.tx_id) == Some(tx_id);
        if held_to_end {
            self.stations[r].reservation = None;
        }
        if !held_to_end && capture_cut_ns.is_none() {
            return; // never acquired: receiver busy, filtered, or half-duplex
        }
        // Half-duplex re-check: the receiver may have begun transmitting
        // after acquiring (possible when the packet is below its carrier
        // threshold — deaf jammers).
        if self
            .medium
            .station_transmitting_during(r, tx.start_ns, tx.end_ns)
        {
            return;
        }
        let signal_dbm = self.gains.wavelan_dbm(tx.src, r);
        let len_bits = tx.len_bits();
        let capture_at_ns = capture_cut_ns;

        // Interference: other WaveLAN transmissions plus ambient sources,
        // assembled into the reusable scratch buffer. The receiver's own
        // transmissions are handled as half-duplex above.
        self.scratch.emissions.clear();
        for (_, t) in self.medium.overlapping(tx.start_ns, tx.end_ns, tx_id) {
            if t.src == r {
                continue;
            }
            if let Some((start_bit, end_bit)) = t.overlap_bits(tx.start_ns, tx.end_ns) {
                self.scratch.emissions.push(Emission {
                    start_bit,
                    end_bit,
                    raw_dbm: self.gains.wavelan_dbm(t.src, r),
                    kind: InterferenceKind::WaveLan,
                });
            }
        }
        for (i, src) in self.scenario.ambient.iter().enumerate() {
            let interferer = src.interferer(self.gains.ambient_dbm(i, r));
            // Phase-continuous in absolute time, with a stable per-source
            // offset so multiple sources don't cycle in lockstep.
            let offset = self
                .scenario
                .seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(i as u64 * 7919);
            interferer.emissions_at_into(
                ns_to_bits(tx.start_ns).wrapping_add(offset),
                len_bits,
                &mut self.rng,
                &mut self.scratch.emissions,
            );
        }

        let outcome = self.scenario.link.receive_with(
            signal_dbm,
            &self.scratch.emissions,
            len_bits,
            &mut self.rng,
            &mut self.scratch.rx,
        );
        let mut reception = match outcome {
            PacketOutcome::Lost(_) => {
                self.stations[r].rx_lost += 1;
                return;
            }
            PacketOutcome::Received(rec) => rec,
        };
        let station = &mut self.stations[r];
        // The quality threshold can still reject at delivery (the receive
        // threshold was already enforced at acquisition).
        if reception.metrics.quality < station.config.thresholds.quality {
            station.packets_filtered += 1;
            self.scratch
                .rx
                .recycle_error_buf(std::mem::take(&mut reception.error_bits));
            return;
        }
        // Apply the capture cut-off: the receiver abandoned this packet when
        // the stronger one started.
        if let Some(cap_ns) = capture_at_ns {
            let cap_bit = ns_to_bits(cap_ns.saturating_sub(tx.start_ns));
            let already = reception.truncated_at_bit.unwrap_or(len_bits);
            reception.truncated_at_bit = Some(already.min(cap_bit));
            reception.error_bits.retain(|&b| b < already.min(cap_bit));
        }
        station.packets_delivered += 1;
        if reception.truncated_at_bit.is_some() {
            station.packets_truncated_rx += 1;
        }

        if station.config.record_trace {
            station.records_logged += 1;
            let delivered_bits = reception.delivered_bits(len_bits);
            let bytes = &mut self.scratch.record_bytes;
            bytes.clear();
            tx.frame.write(bytes);
            bytes.truncate((delivered_bits / 8) as usize);
            for &bit in &reception.error_bits {
                let byte = (bit / 8) as usize;
                if byte < bytes.len() {
                    bytes[byte] ^= 0x80 >> (bit % 8);
                }
            }
            let corrupted_bits = reception
                .error_bits
                .iter()
                .filter(|&&b| b / 8 < bytes.len() as u64)
                .count() as u32;
            let view = RecordView {
                time_ns: tx.start_ns,
                bytes: &self.scratch.record_bytes,
                wire_len: tx.wire_len,
                level: reception.metrics.level.value(),
                silence: reception.metrics.silence.value(),
                quality: reception.metrics.quality,
                antenna: reception.metrics.antenna,
                truth: Some(GroundTruth {
                    src_station: tx.src,
                    seq: Some(tx.frame.seq),
                    corrupted_bits,
                    truncated: reception.truncated_at_bit.is_some(),
                }),
            };
            self.sink.record(r, &view);
        }
        // Return the error-position buffer to the pool: the trace keeps only
        // derived data, so the Vec's capacity can serve the next packet.
        self.scratch
            .rx
            .recycle_error_buf(std::mem::take(&mut reception.error_bits));
    }
}

/// Exposes the per-receiver transmitted-packet count the way the paper's
/// experimenter knew it: test packets sent by `sender` during the trial.
pub fn attach_tx_count(result: &mut TrialResult, receiver: StationId, sender: StationId) {
    let sent = result.packets_transmitted[sender];
    if let Some(trace) = result.traces[receiver].as_mut() {
        trace.packets_transmitted = sent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::station::StationConfig;
    use wavelan_net::testpkt::Endpoint;

    /// Two stations 7 ft apart in an open room — the Table 2 base case.
    fn in_room_scenario(seed: u64) -> (Scenario, StationId, StationId) {
        let mut b = ScenarioBuilder::new(seed);
        let rx = b.station(StationConfig::receiver(
            Endpoint::station(1),
            Point::feet(0.0, 0.0),
        ));
        let tx = b.station(StationConfig::sender(
            Endpoint::station(2),
            Point::feet(7.0, 0.0),
            rx,
        ));
        (b.build(), tx, rx)
    }

    #[test]
    fn in_room_trial_delivers_clean_packets() {
        let (scenario, tx, rx) = in_room_scenario(42);
        let mut result = scenario.run(tx, 500);
        attach_tx_count(&mut result, rx, tx);
        let trace = result.trace(rx);
        assert_eq!(trace.packets_transmitted, 500);
        // Loss is the host floor only: expect ≥ 498 of 500.
        assert!(
            trace.records.len() >= 498,
            "received {}",
            trace.records.len()
        );
        for rec in &trace.records {
            let truth = rec.truth.unwrap();
            assert_eq!(truth.corrupted_bits, 0);
            assert!(!truth.truncated);
            assert!((26..=34).contains(&rec.level), "level {}", rec.level);
            assert!(rec.silence <= 6, "silence {}", rec.silence);
            // Reporting jitter allows an occasional 14 (Table 4's wall trial
            // shows min 14 under equally clean conditions).
            assert!(rec.quality >= 14, "quality {}", rec.quality);
        }
    }

    #[test]
    fn trials_are_deterministic() {
        let (s1, tx, rx) = in_room_scenario(7);
        let (s2, _, _) = in_room_scenario(7);
        let r1 = s1.run(tx, 100);
        let r2 = s2.run(tx, 100);
        assert_eq!(r1.traces[rx], r2.traces[rx]);
        let (s3, _, _) = in_room_scenario(8);
        let r3 = s3.run(tx, 100);
        assert_ne!(r1.traces[rx], r3.traces[rx]);
    }

    #[test]
    fn sequence_numbers_increment() {
        let (scenario, tx, rx) = in_room_scenario(1);
        let result = scenario.run(tx, 50);
        let seqs: Vec<u32> = result
            .trace(rx)
            .records
            .iter()
            .filter_map(|r| r.truth.unwrap().seq)
            .collect();
        for w in seqs.windows(2) {
            assert!(w[1] > w[0], "non-increasing seq: {w:?}");
        }
        assert!(seqs.len() >= 49);
    }

    #[test]
    fn saturating_jammer_starves_a_default_threshold_sender() {
        // Section 7.4 with threshold 3: the victim can barely transmit.
        let mut b = ScenarioBuilder::new(3);
        let rx = b.station(StationConfig::receiver(
            Endpoint::station(1),
            Point::feet(0.0, 0.0),
        ));
        let tx = b.station(StationConfig::sender(
            Endpoint::station(2),
            Point::feet(7.0, 0.0),
            rx,
        ));
        // A jammer 15 ft away, clearly audible at threshold 3.
        let j = b.station(StationConfig::jammer(
            Endpoint::station(3),
            Point::feet(15.0, 0.0),
            rx,
        ));
        let scenario = b.build();
        let result = scenario.run_for(2_000_000_000); // 2 virtual seconds
                                                      // The jammer transmits hundreds of packets; the victim's MAC mostly
                                                      // collides.
        assert!(
            result.packets_transmitted[j] > 300,
            "jammer sent {}",
            result.packets_transmitted[j]
        );
        let victim = result.mac_stats[tx];
        assert!(
            victim.collisions > victim.transmissions * 5,
            "victim should be starved: {victim:?}"
        );
    }

    #[test]
    fn raised_threshold_unmasks_the_channel() {
        // Same layout, but the sender raises its threshold to 25 (Table 14):
        // the jammer is no longer sensed, transmission proceeds.
        let mut b = ScenarioBuilder::new(4);
        let rx = b.station(StationConfig {
            thresholds: wavelan_mac::Thresholds {
                receive_level: 25,
                quality: 1,
            },
            ..StationConfig::receiver(Endpoint::station(1), Point::feet(0.0, 0.0))
        });
        let tx = b.station(StationConfig {
            thresholds: wavelan_mac::Thresholds {
                receive_level: 25,
                quality: 1,
            },
            ..StationConfig::sender(Endpoint::station(2), Point::feet(7.0, 0.0), rx)
        });
        // Jammer far enough that its level at the sender is < 25.
        let j = b.station(StationConfig::jammer(
            Endpoint::station(3),
            Point::feet(45.0, 0.0),
            rx,
        ));
        let scenario = b.build();
        let mut result = scenario.run(tx, 200);
        attach_tx_count(&mut result, rx, tx);
        assert_eq!(result.packets_transmitted[tx], 200);
        let stats = result.mac_stats[tx];
        assert!(
            stats.collision_free_fraction() > 0.95,
            "sender still deferring: {stats:?}"
        );
        // And the receiver's trace contains (mostly) clean test packets; the
        // jammer's own packets are filtered by the threshold.
        let trace = result.trace(rx);
        let from_tx = trace
            .records
            .iter()
            .filter(|r| r.truth.unwrap().src_station == tx)
            .count();
        assert!(from_tx >= 190, "{from_tx}");
        let _ = j;
    }

    #[test]
    fn run_hits_time_limit_gracefully() {
        let (scenario, tx, _) = in_room_scenario(5);
        // Limit far below what 1000 packets need.
        let result = scenario.run_with_limit(tx, 1_000, 10_000_000);
        assert!(result.packets_transmitted[tx] < 1_000);
        assert!(result.ended_at_ns <= 11_000_000);
    }
}

#[cfg(test)]
mod scripted_tests {
    use super::*;
    use crate::station::{StationConfig, Traffic};
    use wavelan_net::testpkt::Endpoint;

    /// Receiver + a scripted sender: enqueued frames transmit, deliver, and
    /// snapshots observe monotone counters.
    fn scripted_pair(seed: u64) -> (Scenario, StationId, StationId) {
        let mut b = ScenarioBuilder::new(seed);
        let rx = b.station(StationConfig::receiver(
            Endpoint::station(1),
            Point::feet(0.0, 0.0),
        ));
        let tx = b.station(StationConfig {
            traffic: Traffic::Scripted { peer: rx },
            ..StationConfig::sender(Endpoint::station(2), Point::feet(7.0, 0.0), rx)
        });
        (b.build(), tx, rx)
    }

    #[test]
    fn scripted_enqueue_transmits_exactly_the_handed_frames() {
        let (scenario, tx, rx) = scripted_pair(11);
        let directives = [
            Directive {
                at_ns: 1_000_000,
                op: DirectiveOp::Enqueue {
                    station: tx,
                    packets: 40,
                    spacing_ns: 6_100_000,
                },
            },
            Directive {
                at_ns: 400_000_000,
                op: DirectiveOp::Snapshot { id: 7 },
            },
        ];
        let mut scratch = SimScratch::new();
        let result = scenario.run_scripted(&directives, 500_000_000, &mut scratch);
        assert_eq!(result.packets_transmitted[tx], 40);
        assert!(
            result.packets_delivered[rx] >= 38,
            "{}",
            result.packets_delivered[rx]
        );
        assert_eq!(result.snapshots.len(), 1);
        let snap = &result.snapshots[0];
        assert_eq!(snap.id, 7);
        assert_eq!(snap.stations[tx].transmitted, 40);
        assert_eq!(snap.stations[rx].trace_len, result.trace(rx).records.len());
    }

    #[test]
    fn scripted_runs_are_deterministic() {
        let (s1, tx, rx) = scripted_pair(5);
        let (s2, _, _) = scripted_pair(5);
        let directives = [Directive {
            at_ns: 0,
            op: DirectiveOp::Enqueue {
                station: tx,
                packets: 25,
                spacing_ns: 6_100_000,
            },
        }];
        let mut scratch = SimScratch::new();
        let r1 = s1.run_scripted(&directives, 400_000_000, &mut scratch);
        let r2 = s2.run_scripted(&directives, 400_000_000, &mut scratch);
        assert_eq!(r1.traces[rx], r2.traces[rx]);
        assert_eq!(r1.overlap_count, r2.overlap_count);
    }

    #[test]
    fn move_directive_changes_reception_mid_run() {
        // Sender walks from 7 ft to 1200 ft mid-run: deliveries stop (at
        // 1200 ft the received power is ≈ −97 dBm, below the level-0 point
        // of the AGC scale, so the receive-threshold gate rejects frames).
        let (scenario, tx, rx) = scripted_pair(9);
        let directives = [
            Directive {
                at_ns: 0,
                op: DirectiveOp::Enqueue {
                    station: tx,
                    packets: 30,
                    spacing_ns: 6_100_000,
                },
            },
            Directive {
                at_ns: 91_000_000, // after ~15 frames
                op: DirectiveOp::MoveStation {
                    station: tx,
                    to: Point::feet(1200.0, 0.0),
                },
            },
        ];
        let mut scratch = SimScratch::new();
        let result = scenario.run_scripted(&directives, 500_000_000, &mut scratch);
        assert_eq!(result.packets_transmitted[tx], 30);
        let delivered = result.packets_delivered[rx];
        assert!((10..=20).contains(&delivered), "delivered {delivered}");
    }
}
