//! Per-trial link budgets: every slow-scale received power a trial needs,
//! computed once from the placements instead of once per use.
//!
//! Received power depends only on the two endpoints, the floor plan and the
//! propagation model (shadowing is a deterministic draw per placement), and
//! placements change only when a scripted move fires. The event loop
//! therefore reads carrier sense, acquisition, reception and interference
//! powers out of a [`LinkGains`] table and refreshes one station's row and
//! column when it moves. Every entry is the value the direct call returns,
//! bit for bit.

use crate::geometry::Point;
use crate::runner::Scenario;
use crate::station::StationId;

/// Received powers between a trial's current placements, dBm.
#[derive(Debug)]
pub(crate) struct LinkGains {
    /// Current station positions.
    positions: Vec<Point>,
    /// WaveLAN power at station `dst` of station `src` transmitting, at
    /// `[src * n + dst]`; the diagonal is unused (NaN).
    wavelan_dbm: Vec<f64>,
    /// Power of ambient source `i` at station `s`, at `[i * n + s]`.
    ambient_dbm: Vec<f64>,
}

impl LinkGains {
    /// The table for `scenario`'s initial placements.
    pub(crate) fn new(scenario: &Scenario) -> LinkGains {
        let n = scenario.stations.len();
        let mut gains = LinkGains {
            positions: scenario.stations.iter().map(|s| s.pos).collect(),
            wavelan_dbm: vec![f64::NAN; n * n],
            ambient_dbm: vec![0.0; scenario.ambient.len() * n],
        };
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    gains.wavelan_dbm[src * n + dst] = gains.direct(scenario, src, dst);
                }
            }
        }
        for station in 0..n {
            gains.refresh_ambient(scenario, station);
        }
        gains
    }

    /// Moves `station` to `to` and recomputes its row and column.
    pub(crate) fn move_station(&mut self, scenario: &Scenario, station: StationId, to: Point) {
        let n = self.positions.len();
        self.positions[station] = to;
        for other in (0..n).filter(|&other| other != station) {
            self.wavelan_dbm[station * n + other] = self.direct(scenario, station, other);
            self.wavelan_dbm[other * n + station] = self.direct(scenario, other, station);
        }
        self.refresh_ambient(scenario, station);
    }

    /// WaveLAN power at `dst` while `src` transmits, dBm.
    pub(crate) fn wavelan_dbm(&self, src: StationId, dst: StationId) -> f64 {
        self.wavelan_dbm[src * self.positions.len() + dst]
    }

    /// Power of ambient source `source` at `station`, dBm.
    pub(crate) fn ambient_dbm(&self, source: usize, station: StationId) -> f64 {
        self.ambient_dbm[source * self.positions.len() + station]
    }

    fn direct(&self, scenario: &Scenario, src: StationId, dst: StationId) -> f64 {
        scenario.propagation.wavelan_rx_dbm(
            self.positions[src],
            self.positions[dst],
            &scenario.floorplan,
        )
    }

    fn refresh_ambient(&mut self, scenario: &Scenario, station: StationId) {
        let n = self.positions.len();
        for (i, source) in scenario.ambient.iter().enumerate() {
            self.ambient_dbm[i * n + station] = source.power_at(
                self.positions[station],
                &scenario.propagation,
                &scenario.floorplan,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Segment;
    use crate::medium::{AmbientSource, Emitter};
    use crate::runner::ScenarioBuilder;
    use crate::station::StationConfig;
    use crate::FloorPlan;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wavelan_net::testpkt::Endpoint;
    use wavelan_phy::interference::DutyCycle;
    use wavelan_phy::{InterferenceKind, Material};

    /// The multi-room building of the paper's Tables 5-7: two concrete
    /// walls, a metal cabinet and furniture clutter.
    fn multiroom() -> FloorPlan {
        FloorPlan::open()
            .with_wall(
                Segment::feet(8.0, -30.0, 8.0, 30.0),
                Material::ConcreteBlock,
            )
            .with_wall(
                Segment::feet(20.0, -5.0, 20.0, 30.0),
                Material::ConcreteBlock,
            )
            .with_wall(Segment::feet(15.0, -6.0, 15.0, -4.0), Material::Metal)
            .with_wall(Segment::feet(22.0, -8.5, 22.0, -6.5), Material::Furniture)
            .with_wall(Segment::feet(25.0, -9.0, 25.0, -7.5), Material::Furniture)
    }

    fn random_point(rng: &mut StdRng) -> Point {
        Point::feet(rng.gen_range(-10.0..50.0), rng.gen_range(-20.0..20.0))
    }

    /// Every entry against the direct propagation call, compared as bits.
    fn assert_matches_direct(gains: &LinkGains, scenario: &Scenario, positions: &[Point]) {
        let (prop, plan) = (&scenario.propagation, &scenario.floorplan);
        for (src, &from) in positions.iter().enumerate() {
            for (dst, &to) in positions.iter().enumerate() {
                if src != dst {
                    let direct = prop.wavelan_rx_dbm(from, to, plan);
                    assert_eq!(gains.wavelan_dbm(src, dst).to_bits(), direct.to_bits());
                }
            }
            for (i, source) in scenario.ambient.iter().enumerate() {
                let direct = source.power_at(from, prop, plan);
                assert_eq!(gains.ambient_dbm(i, src).to_bits(), direct.to_bits());
            }
        }
    }

    #[test]
    fn table_equals_direct_propagation_before_and_after_moves() {
        let mut rng = StdRng::seed_from_u64(1996);
        for seed in 0..8 {
            let mut b = ScenarioBuilder::new(seed).floorplan(multiroom());
            for id in 0..5 {
                b.station(StationConfig::receiver(
                    Endpoint::station(id + 1),
                    random_point(&mut rng),
                ));
            }
            b.ambient(AmbientSource {
                kind: InterferenceKind::WidebandInBand,
                duty: DutyCycle::Continuous,
                burst_sigma_db: 1.0,
                emitter: Emitter::Positioned {
                    pos: random_point(&mut rng),
                    eirp_dbm: 10.0,
                },
            });
            b.ambient(AmbientSource {
                kind: InterferenceKind::NarrowbandInBand,
                duty: DutyCycle::Continuous,
                burst_sigma_db: 0.0,
                emitter: Emitter::FixedPower(-70.0),
            });
            let scenario = b.build();
            assert!(scenario.propagation.shadowing_sigma_db > 0.0);

            let mut positions: Vec<Point> = scenario.stations.iter().map(|s| s.pos).collect();
            let mut gains = LinkGains::new(&scenario);
            assert_matches_direct(&gains, &scenario, &positions);
            for _ in 0..6 {
                let station = rng.gen_range(0..positions.len());
                let to = random_point(&mut rng);
                positions[station] = to;
                gains.move_station(&scenario, station, to);
                assert_matches_direct(&gains, &scenario, &positions);
            }
        }
    }
}
