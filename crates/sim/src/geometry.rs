//! 2-D geometry for floor plans: points, segments, and segment intersection.
//!
//! Coordinates are in meters. The paper reports all distances in feet, so
//! feet-based constructors are provided; internally everything is metric.

use serde::{Deserialize, Serialize};

/// Feet → meters.
pub const FEET_TO_METERS: f64 = 0.3048;

/// A point in the floor plan, meters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// East–west coordinate, m.
    pub x: f64,
    /// North–south coordinate, m.
    pub y: f64,
}

impl Point {
    /// A point from metric coordinates.
    pub fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// A point from coordinates in feet (the paper's unit).
    pub fn feet(x_ft: f64, y_ft: f64) -> Point {
        Point {
            x: x_ft * FEET_TO_METERS,
            y: y_ft * FEET_TO_METERS,
        }
    }

    /// Euclidean distance to another point, meters.
    pub fn distance(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// One endpoint.
    pub a: Point,
    /// The other endpoint.
    pub b: Point,
}

impl Segment {
    /// A segment from metric endpoints.
    pub fn new(a: Point, b: Point) -> Segment {
        Segment { a, b }
    }

    /// A segment with endpoints given in feet.
    pub fn feet(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment {
            a: Point::feet(ax, ay),
            b: Point::feet(bx, by),
        }
    }

    /// Whether this segment properly intersects another (shared endpoints
    /// and collinear touching count as intersection — a ray grazing along a
    /// wall does pass through it physically).
    pub fn intersects(&self, other: &Segment) -> bool {
        segments_intersect(self.a, self.b, other.a, other.b)
    }
}

/// Orientation of the ordered triple (p, q, r): >0 counter-clockwise,
/// <0 clockwise, 0 collinear (within epsilon).
fn orientation(p: Point, q: Point, r: Point) -> i8 {
    let v = (q.y - p.y) * (r.x - q.x) - (q.x - p.x) * (r.y - q.y);
    if v.abs() < 1e-12 {
        0
    } else if v > 0.0 {
        1
    } else {
        -1
    }
}

/// Whether collinear point `q` lies on segment `pr`.
fn on_segment(p: Point, q: Point, r: Point) -> bool {
    q.x <= p.x.max(r.x) + 1e-12
        && q.x + 1e-12 >= p.x.min(r.x)
        && q.y <= p.y.max(r.y) + 1e-12
        && q.y + 1e-12 >= p.y.min(r.y)
}

/// Classic segment-intersection test via orientations.
fn segments_intersect(p1: Point, q1: Point, p2: Point, q2: Point) -> bool {
    let o1 = orientation(p1, q1, p2);
    let o2 = orientation(p1, q1, q2);
    let o3 = orientation(p2, q2, p1);
    let o4 = orientation(p2, q2, q1);
    if o1 != o2 && o3 != o4 {
        return true;
    }
    (o1 == 0 && on_segment(p1, p2, q1))
        || (o2 == 0 && on_segment(p1, q2, q1))
        || (o3 == 0 && on_segment(p2, p1, q2))
        || (o4 == 0 && on_segment(p2, q1, q2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_feet() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        let f = Point::feet(10.0, 0.0);
        assert!((f.x - 3.048).abs() < 1e-12);
    }

    #[test]
    fn crossing_segments_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let s2 = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        assert!(s1.intersects(&s2));
        assert!(s2.intersects(&s1));
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let s2 = Segment::new(Point::new(0.0, 1.0), Point::new(2.0, 1.0));
        assert!(!s1.intersects(&s2));
    }

    #[test]
    fn disjoint_segments_do_not_intersect() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let s2 = Segment::new(Point::new(3.0, 3.0), Point::new(4.0, 4.5));
        assert!(!s1.intersects(&s2));
    }

    #[test]
    fn touching_endpoint_counts() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let s2 = Segment::new(Point::new(2.0, 0.0), Point::new(2.0, 2.0));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn collinear_overlap_counts() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 0.0));
        let s2 = Segment::new(Point::new(1.0, 0.0), Point::new(5.0, 0.0));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn collinear_disjoint_does_not_count() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let s2 = Segment::new(Point::new(2.0, 0.0), Point::new(3.0, 0.0));
        assert!(!s1.intersects(&s2));
    }

    #[test]
    fn t_junction_counts() {
        // One segment's endpoint lies in the middle of the other.
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        let s2 = Segment::new(Point::new(2.0, 0.0), Point::new(2.0, 3.0));
        assert!(s1.intersects(&s2));
    }
}
