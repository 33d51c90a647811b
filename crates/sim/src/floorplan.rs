//! Floor plans: material-tagged walls and movable obstacles.
//!
//! The paper's propagation environments — an office, a lecture hall, the
//! multi-room layout of its Figure 4, two rooms across a hallway — are
//! described here as collections of wall segments, each tagged with a
//! [`Material`]. The propagation model asks one question of a floor plan:
//! *which materials does the straight line between transmitter and receiver
//! cross?* (The paper's own accounting works the same way: "The second
//! transmitter location is approximately four feet away through a single
//! concrete block wall".)
//!
//! Movable obstacles (the Section 6.3 human body) are just short wall
//! segments that can be added or removed between trials.

use crate::geometry::{Point, Segment};
use wavelan_phy::Material;

/// A wall (or door, or other planar obstacle) in the floor plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// The wall's footprint in plan view.
    pub segment: Segment,
    /// What it is made of.
    pub material: Material,
}

/// A building floor plan.
#[derive(Debug, Clone, Default)]
pub struct FloorPlan {
    walls: Vec<Wall>,
}

impl FloorPlan {
    /// An empty plan (open space / same-room experiments).
    pub fn open() -> FloorPlan {
        FloorPlan::default()
    }

    /// Adds a wall and returns `self` for chaining.
    pub fn with_wall(mut self, segment: Segment, material: Material) -> FloorPlan {
        self.walls.push(Wall { segment, material });
        self
    }

    /// Adds a wall in place, returning its index (so obstacles like a human
    /// body can be removed later).
    pub fn add_wall(&mut self, segment: Segment, material: Material) -> usize {
        self.walls.push(Wall { segment, material });
        self.walls.len() - 1
    }

    /// All walls.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// Materials crossed by the straight path from `a` to `b`, in arbitrary
    /// order. A wall is counted once per crossing segment.
    pub fn materials_crossed(&self, a: Point, b: Point) -> Vec<Material> {
        self.walls_crossed(a, b).map(|w| w.material).collect()
    }

    /// Total wall attenuation along the path, dB.
    pub(crate) fn path_attenuation_db(&self, a: Point, b: Point) -> f64 {
        self.walls_crossed(a, b)
            .map(|w| w.material.attenuation_db())
            .sum()
    }

    /// The walls the straight path from `a` to `b` crosses, in wall order.
    fn walls_crossed(&self, a: Point, b: Point) -> impl Iterator<Item = &Wall> {
        let path = Segment::new(a, b);
        self.walls
            .iter()
            .filter(move |w| w.segment.intersects(&path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two rooms separated by a vertical concrete wall at x = 5 m.
    fn two_rooms() -> FloorPlan {
        FloorPlan::open().with_wall(
            Segment::new(Point::new(5.0, -10.0), Point::new(5.0, 10.0)),
            Material::ConcreteBlock,
        )
    }

    #[test]
    fn same_room_crosses_nothing() {
        let plan = two_rooms();
        let hits = plan.materials_crossed(Point::new(0.0, 0.0), Point::new(4.0, 2.0));
        assert!(hits.is_empty());
        assert_eq!(
            plan.path_attenuation_db(Point::new(0.0, 0.0), Point::new(4.0, 2.0)),
            0.0
        );
    }

    #[test]
    fn cross_room_crosses_the_wall() {
        let plan = two_rooms();
        let hits = plan.materials_crossed(Point::new(0.0, 0.0), Point::new(8.0, 1.0));
        assert_eq!(hits, vec![Material::ConcreteBlock]);
        assert!(
            (plan.path_attenuation_db(Point::new(0.0, 0.0), Point::new(8.0, 1.0)) - 3.0).abs()
                < 1e-12
        );
    }

    #[test]
    fn multiple_walls_accumulate() {
        let plan = two_rooms()
            .with_wall(
                Segment::new(Point::new(7.0, -10.0), Point::new(7.0, 10.0)),
                Material::PlasterWireMesh,
            )
            .with_wall(
                Segment::new(Point::new(9.0, -10.0), Point::new(9.0, 10.0)),
                Material::Metal,
            );
        let att = plan.path_attenuation_db(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert!((att - (3.0 + 7.5 + 12.0)).abs() < 1e-12);
    }

    #[test]
    fn path_parallel_to_wall_misses_it() {
        let plan = two_rooms();
        let hits = plan.materials_crossed(Point::new(4.0, -5.0), Point::new(4.0, 5.0));
        assert!(hits.is_empty());
    }

    #[test]
    fn human_body_obstacle_add_remove() {
        // Section 6.3: interpose a person, then remove them.
        let mut plan = two_rooms();
        let a = Point::feet(0.0, 0.0);
        let b = Point::feet(56.0, 0.0);
        let before = plan.path_attenuation_db(a, b);
        plan.add_wall(Segment::feet(28.0, -1.0, 28.0, 1.0), Material::HumanBody);
        let with_body = plan.path_attenuation_db(a, b);
        assert!((with_body - before - Material::HumanBody.attenuation_db()).abs() < 1e-12);
    }
}
