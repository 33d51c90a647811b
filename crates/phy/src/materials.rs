//! Obstacle materials and their attenuation.
//!
//! The paper measures attenuation in *AGC level units* (its Section 6):
//!
//! * a plaster wall with wire-mesh core costs ≈ 5 level units (Table 4),
//! * a concrete block wall costs ≈ 2 level units (Table 4) — "concrete walls
//!   seem to be less of a hindrance for these signals than plaster over wire
//!   mesh walls",
//! * a human body in the path costs ≈ 6 level units (Tables 8–9: level μ
//!   dropped from 12.55 to 6.73).
//!
//! The AGC mapping in [`crate::agc`] uses 1.5 dB per level unit, so the dB
//! figures below are `units × 1.5`.

/// Construction/obstacle material in a propagation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Material {
    /// Plaster over a wire-mesh core: the worst common wall in the study.
    PlasterWireMesh,
    /// Concrete block: surprisingly mild attenuation at 915 MHz.
    ConcreteBlock,
    /// A wooden or hollow door.
    WoodDoor,
    /// Drywall / gypsum partition (not measured in the paper; typical value).
    Drywall,
    /// A metal obstacle (filing cabinet, whiteboard backing); strong shadow.
    Metal,
    /// A human body directly in the path (Section 6.3).
    HumanBody,
    /// Classroom/office furniture clutter along the path.
    Furniture,
    /// A custom attenuation in tenths of a dB (for sensitivity sweeps).
    CustomTenthsDb(u16),
}

impl Material {
    /// Attenuation of one traversal, in dB.
    pub fn attenuation_db(&self) -> f64 {
        // 1 level unit = 1.5 dB (see `agc::DB_PER_LEVEL_UNIT`).
        match self {
            Material::PlasterWireMesh => 7.5, // 5 level units (Table 4, wall 1)
            Material::ConcreteBlock => 3.0,   // 2 level units (Table 4, wall 2)
            Material::WoodDoor => 2.0,
            Material::Drywall => 2.5,
            Material::Metal => 12.0,
            Material::HumanBody => 8.7, // ≈5.8 level units (Tables 8–9)
            Material::Furniture => 1.5,
            Material::CustomTenthsDb(tenths) => f64::from(*tenths) / 10.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibration_wall_units() {
        // Table 4: plaster+mesh ≈ 5 units, concrete ≈ 2 units.
        assert!(
            (Material::PlasterWireMesh.attenuation_db() / crate::agc::DB_PER_LEVEL_UNIT - 5.0)
                .abs()
                < 0.1
        );
        assert!(
            (Material::ConcreteBlock.attenuation_db() / crate::agc::DB_PER_LEVEL_UNIT - 2.0).abs()
                < 0.1
        );
    }

    #[test]
    fn paper_calibration_body_units() {
        // Tables 8–9: body costs just under 6 units.
        let units = Material::HumanBody.attenuation_db() / crate::agc::DB_PER_LEVEL_UNIT;
        assert!((5.0..7.0).contains(&units), "{units}");
    }

    #[test]
    fn concrete_milder_than_plaster() {
        assert!(
            Material::ConcreteBlock.attenuation_db() < Material::PlasterWireMesh.attenuation_db()
        );
    }

    #[test]
    fn custom_material() {
        assert!((Material::CustomTenthsDb(45).attenuation_db() - 4.5).abs() < 1e-12);
    }
}
