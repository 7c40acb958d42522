//! Global routing configuration: dimension order, S-XB and D-XB selection.
//!
//! The paper leaves these as values *"determined by the network hardware in
//! advance"* (set up by the service processor when a fault is diagnosed).
//! The selection rules implemented here are the reconstruction documented in
//! DESIGN.md:
//!
//! * the **dimension order** is the identity (X-Y-...) unless the faulty
//!   switch is a crossbar of a non-first dimension, in which case that
//!   dimension is moved to the front (Sec. 3.2: *"If a part of the network
//!   is faulty ... the network hardware can change the routing order"*) so
//!   the faulty crossbar is only ever needed by sources on its own line;
//! * the **S-XB** is a crossbar of the first dimension whose line avoids the
//!   fault: its line coordinate differs from any faulty router's coordinate
//!   in *every* remaining dimension (this is what Sec. 4 calls substituting
//!   *"another XB which is not connected to the faulty"* switch), and its
//!   line index differs from a faulty crossbar's;
//! * the **D-XB equals the S-XB** — the paper's deadlock-freedom result
//!   (Sec. 5). The Fig. 9 deadlock-prone variant with a separate D-XB is
//!   available through [`RoutingConfig::with_separate_dxb`] for the
//!   reproduction experiments.

use mdx_fault::{FaultSet, FaultSite};
use mdx_topology::{Coord, Shape, XbarRef};
use serde::{Deserialize, Serialize};

/// Errors selecting a routing configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A dimension extent of 1 leaves no room to route the special line away
    /// from the fault.
    ExtentTooSmall(usize),
    /// Two faulty crossbars in different dimensions cannot both be moved to
    /// the front of the dimension order.
    ConflictingXbarFaults,
    /// The Fig. 9 variant needs a D-XB line apart from the S-XB's, and no
    /// non-first dimension has a coordinate that differs from both the
    /// S-XB's and every faulty router's (a 1-D machine has no such
    /// dimension at all).
    NoSeparateDxbLine,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ExtentTooSmall(d) => {
                write!(f, "dimension {d} has extent 1; cannot clear the fault")
            }
            ConfigError::ConflictingXbarFaults => {
                write!(f, "faulty crossbars in more than one dimension")
            }
            ConfigError::NoSeparateDxbLine => {
                write!(
                    f,
                    "no line for a D-XB apart from the S-XB that clears the fault"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The hardware routing configuration shared by every switch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingConfig {
    shape: Shape,
    /// Dimension resolution order; `ord[0]` is the S-XB/D-XB dimension.
    ord: Vec<usize>,
    /// Coordinates of the special (S-XB) line in dimensions `ord[1..]`; the
    /// `ord[0]` component is meaningless and kept at 0.
    special: Coord,
    /// Coordinates of the detour (D-XB) line. Equal to `special` in the
    /// paper's deadlock-free scheme.
    detour: Coord,
}

/// Picks a coordinate value in `0..extent` avoiding every value in
/// `forbidden`; prefers the smallest.
fn pick_avoiding(extent: u16, forbidden: &[u16]) -> Option<u16> {
    (0..extent).find(|v| !forbidden.contains(v))
}

impl RoutingConfig {
    /// The fault-free default: X-Y-... order, S-XB = D-XB = first-dimension
    /// crossbar of line 0.
    pub fn fault_free(shape: Shape) -> RoutingConfig {
        let d = shape.d();
        RoutingConfig {
            shape,
            ord: (0..d).collect(),
            special: Coord::ORIGIN,
            detour: Coord::ORIGIN,
        }
    }

    /// Selects the configuration for a fault set, per the rules above.
    ///
    /// Guarantees (proved by the exhaustive single-fault tests): with at
    /// most one fault and all extents >= 2, the S-XB line contains no faulty
    /// switch, every fan-out-interior router avoids the fault, and detour
    /// paths converge. With several faults the selection is best-effort
    /// (beyond the paper's specification).
    pub fn for_faults(shape: &Shape, faults: &FaultSet) -> Result<RoutingConfig, ConfigError> {
        let d = shape.d();
        // Dimension order: a faulty crossbar's dimension moves to the front.
        let mut xbar_dims: Vec<usize> = faults
            .sites()
            .filter_map(|s| match s {
                FaultSite::Xbar(x) => Some(x.dim as usize),
                _ => None,
            })
            .collect();
        xbar_dims.sort_unstable();
        xbar_dims.dedup();
        if xbar_dims.len() > 1 {
            return Err(ConfigError::ConflictingXbarFaults);
        }
        let first = xbar_dims.first().copied().unwrap_or(0);
        let mut ord = vec![first];
        ord.extend((0..d).filter(|&x| x != first));

        // Special line: avoid every faulty router's coordinate in each
        // non-first dimension.
        let router_coords: Vec<Coord> = faults
            .sites()
            .filter_map(|s| match s {
                FaultSite::Router(r) => Some(shape.coord_of(r)),
                _ => None,
            })
            .collect();
        let mut special = Coord::ORIGIN;
        for &dim in &ord[1..] {
            let forbidden: Vec<u16> = router_coords.iter().map(|c| c.get(dim)).collect();
            let v = pick_avoiding(shape.extent(dim), &forbidden)
                .ok_or(ConfigError::ExtentTooSmall(dim))?;
            special = special.with(dim, v);
        }
        // If the faulty switch is a crossbar of dimension `first`, the S-XB
        // must be a different line of that dimension.
        if let Some(FaultSite::Xbar(fx)) = faults
            .sites()
            .find(|s| matches!(s, FaultSite::Xbar(x) if x.dim as usize == first))
        {
            let mut cfg_line = shape.line_of(special.with(first, 0), first);
            if cfg_line == fx.line as usize {
                // Nudge the first non-first dimension to a different value.
                let dim = ord[1..]
                    .iter()
                    .copied()
                    .find(|&dim| shape.extent(dim) >= 2)
                    .ok_or(ConfigError::ExtentTooSmall(first))?;
                let cur = special.get(dim);
                let forbidden: Vec<u16> = router_coords
                    .iter()
                    .map(|c| c.get(dim))
                    .chain([cur])
                    .collect();
                let v = pick_avoiding(shape.extent(dim), &forbidden)
                    .ok_or(ConfigError::ExtentTooSmall(dim))?;
                special = special.with(dim, v);
                cfg_line = shape.line_of(special.with(first, 0), first);
                debug_assert_ne!(cfg_line, fx.line as usize);
            }
        }
        Ok(RoutingConfig {
            shape: shape.clone(),
            ord,
            special,
            detour: special,
        })
    }

    /// The Fig. 9 deadlock-prone variant: moves the D-XB to a line different
    /// from the S-XB while still clearing the fault (so routes terminate and
    /// the *only* defect is the second non-dimension-order turn — exactly
    /// the paper's strawman).
    ///
    /// # Errors
    /// [`ConfigError::NoSeparateDxbLine`] when no non-first dimension has
    /// room for a line that differs from both the S-XB's and every faulty
    /// router's coordinate (needs an extent of 3 when a router fault is
    /// present, and a second dimension in any case).
    pub fn with_separate_dxb(mut self, faults: &FaultSet) -> Result<RoutingConfig, ConfigError> {
        let router_coords: Vec<Coord> = faults
            .sites()
            .filter_map(|s| match s {
                FaultSite::Router(r) => Some(self.shape.coord_of(r)),
                _ => None,
            })
            .collect();
        for dim in self.ord[1..].iter().copied() {
            let mut forbidden: Vec<u16> = router_coords.iter().map(|c| c.get(dim)).collect();
            forbidden.push(self.special.get(dim));
            if let Some(v) = pick_avoiding(self.shape.extent(dim), &forbidden) {
                self.detour = self.special.with(dim, v);
                return Ok(self);
            }
        }
        Err(ConfigError::NoSeparateDxbLine)
    }

    /// Overrides the S-XB line coordinates directly (experiment plumbing;
    /// also moves the D-XB to keep the deadlock-free D-XB = S-XB invariant).
    #[must_use]
    pub fn with_special_line(mut self, special: Coord) -> RoutingConfig {
        self.special = special.with(self.ord[0], 0);
        self.detour = self.special;
        self
    }

    /// The network shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension resolution order.
    pub fn order(&self) -> &[usize] {
        &self.ord
    }

    /// The serializing crossbar.
    pub fn sxb(&self) -> XbarRef {
        let dim = self.ord[0];
        XbarRef {
            dim: dim as u8,
            line: self.shape.line_of(self.special.with(dim, 0), dim) as u32,
        }
    }

    /// The detour crossbar.
    pub fn dxb(&self) -> XbarRef {
        let dim = self.ord[0];
        XbarRef {
            dim: dim as u8,
            line: self.shape.line_of(self.detour.with(dim, 0), dim) as u32,
        }
    }

    /// Whether the scheme is the paper's deadlock-free one (D-XB = S-XB).
    pub fn deadlock_free(&self) -> bool {
        self.sxb() == self.dxb()
    }

    /// The special-line coordinate values (meaningful in `ord[1..]`).
    pub fn special_line(&self) -> Coord {
        self.special
    }

    /// The detour-line coordinate values (meaningful in `ord[1..]`).
    pub fn detour_line(&self) -> Coord {
        self.detour
    }

    /// Whether `c` lies on the S-XB's line (agrees with the special line in
    /// every non-first dimension).
    pub fn on_special_line(&self, c: Coord) -> bool {
        self.ord[1..]
            .iter()
            .all(|&d| c.get(d) == self.special.get(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_fault::FaultSite;
    use mdx_topology::XbarRef;

    fn fig2() -> Shape {
        Shape::fig2()
    }

    #[test]
    fn fault_free_defaults() {
        let cfg = RoutingConfig::fault_free(fig2());
        assert_eq!(cfg.order(), &[0, 1]);
        assert_eq!(cfg.sxb(), XbarRef { dim: 0, line: 0 });
        assert_eq!(cfg.dxb(), cfg.sxb());
        assert!(cfg.deadlock_free());
        assert!(cfg.on_special_line(Coord::new(&[3, 0])));
        assert!(!cfg.on_special_line(Coord::new(&[0, 1])));
    }

    #[test]
    fn router_fault_moves_special_line_away() {
        let shape = fig2();
        // Faulty router at (2, 0): the special line must avoid y = 0.
        let r = shape.index_of(Coord::new(&[2, 0]));
        let cfg =
            RoutingConfig::for_faults(&shape, &FaultSet::single(FaultSite::Router(r))).unwrap();
        assert_eq!(cfg.order(), &[0, 1]);
        assert_ne!(cfg.special_line().get(1), 0);
        assert!(cfg.deadlock_free());
    }

    #[test]
    fn x_xbar_fault_keeps_order_but_moves_line() {
        let shape = fig2();
        let fx = XbarRef { dim: 0, line: 0 };
        let cfg =
            RoutingConfig::for_faults(&shape, &FaultSet::single(FaultSite::Xbar(fx))).unwrap();
        assert_eq!(cfg.order(), &[0, 1]);
        assert_ne!(cfg.sxb().line, 0);
    }

    #[test]
    fn y_xbar_fault_flips_dimension_order() {
        let shape = fig2();
        let fy = XbarRef { dim: 1, line: 2 };
        let cfg =
            RoutingConfig::for_faults(&shape, &FaultSet::single(FaultSite::Xbar(fy))).unwrap();
        assert_eq!(cfg.order(), &[1, 0]);
        assert_eq!(cfg.sxb().dim, 1);
        assert_ne!(cfg.sxb().line, 2);
    }

    #[test]
    fn pe_fault_changes_nothing() {
        let shape = fig2();
        let cfg = RoutingConfig::for_faults(&shape, &FaultSet::single(FaultSite::Pe(5))).unwrap();
        assert_eq!(cfg, RoutingConfig::fault_free(shape));
    }

    #[test]
    fn separate_dxb_differs() {
        let cfg = RoutingConfig::fault_free(fig2())
            .with_separate_dxb(&FaultSet::none())
            .unwrap();
        assert!(!cfg.deadlock_free());
        assert_ne!(cfg.sxb(), cfg.dxb());
        assert_eq!(cfg.sxb().dim, cfg.dxb().dim);
    }

    #[test]
    fn conflicting_xbar_faults_rejected() {
        let shape = fig2();
        let mut f = FaultSet::none();
        f.insert(FaultSite::Xbar(XbarRef { dim: 0, line: 0 }));
        f.insert(FaultSite::Xbar(XbarRef { dim: 1, line: 0 }));
        assert_eq!(
            RoutingConfig::for_faults(&shape, &f),
            Err(ConfigError::ConflictingXbarFaults)
        );
    }

    #[test]
    fn same_dim_double_xbar_fault_is_best_effort_ok() {
        let shape = fig2();
        let mut f = FaultSet::none();
        f.insert(FaultSite::Xbar(XbarRef { dim: 0, line: 0 }));
        f.insert(FaultSite::Xbar(XbarRef { dim: 0, line: 1 }));
        // Same dimension: order is still well-defined.
        let cfg = RoutingConfig::for_faults(&shape, &f).unwrap();
        assert_eq!(cfg.order(), &[0, 1]);
    }

    #[test]
    fn every_single_fault_clears_the_special_line() {
        let shape = Shape::new(&[4, 3, 2]).unwrap();
        let net = mdx_topology::MdCrossbar::build(shape.clone());
        for site in mdx_fault::enumerate_single_faults(&net) {
            let cfg = RoutingConfig::for_faults(&shape, &FaultSet::single(site)).unwrap();
            match site {
                FaultSite::Router(r) => {
                    let c = shape.coord_of(r);
                    // The special line differs from the fault in EVERY
                    // non-first dimension (the convergence condition).
                    for &dim in &cfg.order()[1..] {
                        assert_ne!(cfg.special_line().get(dim), c.get(dim), "{site} dim {dim}");
                    }
                    assert!(!cfg.on_special_line(c));
                }
                FaultSite::Xbar(x) => {
                    assert_eq!(cfg.order()[0], x.dim as usize);
                    assert_ne!(cfg.sxb(), x);
                }
                FaultSite::Pe(_) => {}
            }
            assert!(cfg.deadlock_free());
        }
    }

    #[test]
    fn extent_one_dimension_errors_when_fault_shares_it() {
        let shape = Shape::new(&[4, 1]).unwrap();
        let r = shape.index_of(Coord::new(&[2, 0]));
        assert_eq!(
            RoutingConfig::for_faults(&shape, &FaultSet::single(FaultSite::Router(r))),
            Err(ConfigError::ExtentTooSmall(1))
        );
    }

    #[test]
    fn with_special_line_keeps_dxb_equal() {
        let cfg = RoutingConfig::fault_free(fig2()).with_special_line(Coord::new(&[0, 2]));
        assert_eq!(cfg.sxb(), XbarRef { dim: 0, line: 2 });
        assert!(cfg.deadlock_free());
    }
}
