//! A simulated transmission allocates nothing once the trial is warm: the
//! link-gain table answers every propagation query, frames travel as
//! `Copy` recipes, the medium's log is a reused vector, and a logged
//! record's bytes are written into the scratch buffer. A counting global
//! allocator observes every alloc/realloc the test thread makes across a
//! whole measured trial — set-up and result vectors included — and the
//! count per transmission must stay below 0.01.
//!
//! What remains is per trial, not per transmission (a constant count, the
//! same at 2,000 and 20,000 packets): the station, gain and result
//! vectors and the first growth of the event queue and the medium's log.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wavelan_mac::network_id::NetworkId;
use wavelan_mac::threshold::Thresholds;
use wavelan_net::testpkt::Endpoint;
use wavelan_phy::interference::DutyCycle;
use wavelan_phy::{InterferenceKind, Material};
use wavelan_sim::geometry::Segment;
use wavelan_sim::station::{FrameKind, Traffic};
use wavelan_sim::{
    AmbientSource, Emitter, FloorPlan, Point, RecordView, Scenario, ScenarioBuilder, SimScratch,
    StationConfig, TraceSink,
};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread: the test harness runs tests on
    /// parallel threads, whose allocations must not count here.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_one() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches
// only a thread-local cell and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Counts records and touches their bytes, keeping nothing.
struct NoopSink {
    records: u64,
    checksum: u64,
}

impl TraceSink for NoopSink {
    fn record(&mut self, _station: usize, view: &RecordView<'_>) {
        self.records += 1;
        self.checksum += view.bytes.iter().map(|&b| u64::from(b)).sum::<u64>();
    }
}

/// Runs `scenario` once to warm `scratch`, then again under the counter;
/// returns (allocations, transmissions, records) of the measured run.
fn measure(scenario: &Scenario, primary: usize, packets: u64) -> (u64, u64, u64) {
    let mut scratch = SimScratch::new();
    let mut sink = NoopSink {
        records: 0,
        checksum: 0,
    };
    scenario.run_streamed(primary, packets, &mut scratch, &mut sink);
    sink.records = 0;
    let before = allocations();
    let result = scenario.run_streamed(primary, packets, &mut scratch, &mut sink);
    let allocations = allocations() - before;
    let transmissions = result.packets_transmitted.iter().sum();
    (allocations, transmissions, sink.records)
}

fn assert_allocation_free(name: &str, (allocations, transmissions, records): (u64, u64, u64)) {
    assert!(records > 1_000, "{name}: only {records} records logged");
    let per_tx = allocations as f64 / transmissions as f64;
    assert!(
        per_tx < 0.01,
        "{name}: {allocations} allocations over {transmissions} transmissions ({per_tx:.4} per tx)"
    );
}

/// The receiver and the test sender in different rooms, with two
/// saturating jammers behind further walls — Table 14's competing-WaveLAN
/// geometry, shadowing on. The receiver listens at threshold 3 and logs
/// jammer frames too; the sender is unmasked at threshold 25 so the trial
/// ends after its quota. While the medium kept its log in a `BTreeMap`,
/// this geometry with a threshold-3 sender allocated 0.99 times per
/// transmission in the medium alone: two jammers on the air hold the log
/// near a tree node's capacity, so nodes were split and freed over and
/// over.
#[test]
fn jammed_multi_wall_transmissions_are_allocation_free() {
    let plan = FloorPlan::open()
        .with_wall(
            Segment::feet(8.0, -30.0, 8.0, 30.0),
            Material::ConcreteBlock,
        )
        .with_wall(
            Segment::feet(20.0, -5.0, 20.0, 30.0),
            Material::ConcreteBlock,
        )
        .with_wall(Segment::feet(15.0, -6.0, 15.0, -4.0), Material::Metal)
        .with_wall(Segment::feet(22.0, -8.5, 22.0, -6.5), Material::Furniture);
    let mut b = ScenarioBuilder::new(14).floorplan(plan);
    let rx = b.station(StationConfig {
        thresholds: Thresholds {
            receive_level: 3,
            quality: 1,
        },
        ..StationConfig::receiver(Endpoint::station(1), Point::feet(0.0, 0.0))
    });
    let tx = b.station(StationConfig {
        thresholds: Thresholds {
            receive_level: 25,
            quality: 1,
        },
        ..StationConfig::sender(Endpoint::station(2), Point::feet(10.0, 0.0), rx)
    });
    let a = b.next_station_id();
    b.station(StationConfig::jammer(
        Endpoint::foreign(8),
        Point::feet(45.0, 0.0),
        a + 1,
    ));
    b.station(StationConfig::jammer(
        Endpoint::foreign(9),
        Point::feet(28.5, -9.5),
        a,
    ));
    let scenario = b.build();
    let measured = measure(&scenario, tx, 2_000);
    assert!(
        measured.1 > 3 * 2_000,
        "jammers barely transmitted: {measured:?}"
    );
    assert_allocation_free("jammed multi-wall", measured);
}

/// Table 2's clean in-room pair: every transmission is logged, so every
/// one writes its frame into the record buffer.
#[test]
fn clean_pair_transmissions_are_allocation_free() {
    let mut b = ScenarioBuilder::new(2);
    let rx = b.station(StationConfig::receiver(
        Endpoint::station(1),
        Point::feet(0.0, 0.0),
    ));
    let tx = b.station(StationConfig::sender(
        Endpoint::station(2),
        Point::feet(7.0, 0.0),
        rx,
    ));
    assert_allocation_free("clean pair", measure(&b.build(), tx, 5_000));
}

/// Table 10's ambient path: a continuous narrowband phone adds one
/// interferer emission to every reception, and an outsider chatter pair
/// two more stations. Streamed, it allocates nothing per transmission;
/// the table10 experiment's buffered `run_in` still allocates each logged
/// record's bytes, because its `BufferSink` keeps them.
#[test]
fn ambient_interferer_transmissions_are_allocation_free() {
    let mut b = ScenarioBuilder::new(10);
    let rx = b.station(StationConfig::receiver(
        Endpoint::station(1),
        Point::feet(0.0, 0.0),
    ));
    let tx = b.station(StationConfig::sender(
        Endpoint::station(2),
        Point::feet(10.0, 0.0),
        rx,
    ));
    // Table 10's outsiders: a chatter pair in another building.
    let a = b.next_station_id();
    for (id, pos, peer, interval_ns) in [
        (200, Point::feet(-430.0, 60.0), a + 1, 9_000_000),
        (201, Point::feet(-540.0, 80.0), a, 13_000_000),
    ] {
        b.station(StationConfig {
            network_id: NetworkId(0x0B5D),
            frame: FrameKind::Chatter,
            traffic: Traffic::Periodic { peer, interval_ns },
            ..StationConfig::sender(Endpoint::foreign(id), pos, peer)
        });
    }
    b.ambient(AmbientSource {
        kind: InterferenceKind::NarrowbandInBand,
        duty: DutyCycle::Continuous,
        burst_sigma_db: 0.5,
        emitter: Emitter::FixedPower(-69.8),
    });
    assert_allocation_free("narrowband phone", measure(&b.build(), tx, 5_000));
}
