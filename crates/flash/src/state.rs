//! MLC cell states, the Gray-coded bit mapping, and read-reference voltages.
//!
//! A 2-bit MLC cell stores one of four states ordered by threshold voltage:
//! `ER < P1 < P2 < P3`. The paper's Figure 1 gives the bit assignment as the
//! tuple `(LSB, MSB)`: ER = 11, P1 = 10, P2 = 00, P3 = 01 — a Gray code, so a
//! shift into an *adjacent* state corrupts exactly one of the two bits.
//!
//! Reading compares the cell's threshold voltage against read-reference
//! voltages `Va < Vb < Vc` (Fig. 1):
//! * the **LSB page** needs a single comparison at `Vb` (LSB = 1 below `Vb`);
//! * the **MSB page** needs `Va` and `Vc` (MSB = 1 outside `[Va, Vc)`).
//!
//! [`VoltageRefs`] generalizes the reference set to `N-1` boundaries for an
//! `N`-state cell (TLC: 7, QLC: 15) so the chip database can describe other
//! generations; the MLC accessors ([`VoltageRefs::va`] etc.) and the
//! [`CellState`] enum remain the cell-exact tier's native vocabulary.

/// The four programmable states of a 2-bit MLC cell, in threshold-voltage
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum CellState {
    /// Erased state, lowest threshold voltage. Stores `(LSB, MSB) = (1, 1)`.
    Er = 0,
    /// First programmed state. Stores `(1, 0)`.
    P1 = 1,
    /// Second programmed state. Stores `(0, 0)`.
    P2 = 2,
    /// Third programmed state, highest threshold voltage. Stores `(0, 1)`.
    P3 = 3,
}

/// All states in threshold-voltage order.
pub(crate) const ALL_STATES: [CellState; 4] =
    [CellState::Er, CellState::P1, CellState::P2, CellState::P3];

/// Largest state count a [`VoltageRefs`] set supports (QLC: 16 states).
pub(crate) const MAX_STATES: usize = 16;

/// Gray code of a state index: adjacent states differ in exactly one bit.
pub(crate) fn gray_code(state: usize) -> usize {
    state ^ (state >> 1)
}

/// The bit that page-kind `kind` of a `bits_per_cell`-bit cell stores for
/// `state`, under the complemented-Gray mapping that generalizes the paper's
/// Figure 1 (the erased state stores all ones; `kind` 0 is the LSB page).
///
/// For MLC this reproduces [`CellState::lsb`] (`kind` 0) and
/// [`CellState::msb`] (`kind` 1) exactly.
pub(crate) fn state_bit(state: usize, kind: usize, bits_per_cell: usize) -> bool {
    debug_assert!(kind < bits_per_cell, "page kind {kind} of a {bits_per_cell}-bit cell");
    (!gray_code(state) >> (bits_per_cell - 1 - kind)) & 1 == 1
}

impl CellState {
    /// Builds a state from its index in threshold-voltage order.
    ///
    /// # Panics
    ///
    /// Panics if `index > 3`.
    pub(crate) fn from_index(index: u8) -> Self {
        ALL_STATES[index as usize]
    }

    /// Index of the state in threshold-voltage order (ER = 0 .. P3 = 3).
    pub(crate) fn index(self) -> u8 {
        self as u8
    }

    /// Builds the state storing the given `(lsb, msb)` pair.
    pub(crate) fn from_bits(lsb: bool, msb: bool) -> Self {
        match (lsb, msb) {
            (true, true) => CellState::Er,
            (true, false) => CellState::P1,
            (false, false) => CellState::P2,
            (false, true) => CellState::P3,
        }
    }

    /// The LSB stored by this state (paper Fig. 1 Gray map).
    pub fn lsb(self) -> bool {
        matches!(self, CellState::Er | CellState::P1)
    }

    /// The MSB stored by this state (paper Fig. 1 Gray map).
    pub fn msb(self) -> bool {
        matches!(self, CellState::Er | CellState::P3)
    }

    /// Both bits as a `(lsb, msb)` tuple.
    pub fn bits(self) -> (bool, bool) {
        (self.lsb(), self.msb())
    }

    /// The next-higher state, if any.
    pub(crate) fn up(self) -> Option<CellState> {
        match self {
            CellState::Er => Some(CellState::P1),
            CellState::P1 => Some(CellState::P2),
            CellState::P2 => Some(CellState::P3),
            CellState::P3 => None,
        }
    }

    /// The next-lower state, if any.
    pub(crate) fn down(self) -> Option<CellState> {
        match self {
            CellState::Er => None,
            CellState::P1 => Some(CellState::Er),
            CellState::P2 => Some(CellState::P1),
            CellState::P3 => Some(CellState::P2),
        }
    }
}

impl std::fmt::Display for CellState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CellState::Er => "ER",
            CellState::P1 => "P1",
            CellState::P2 => "P2",
            CellState::P3 => "P3",
        };
        f.write_str(name)
    }
}

/// An ordered set of read-reference voltages on the normalized scale: the
/// `N-1` state boundaries of an `N`-state cell (MLC: `Va < Vb < Vc`).
///
/// Stored inline at fixed capacity so the type stays `Copy` on the hot read
/// path; only the first `VoltageRefs::len` slots are meaningful (the rest
/// are zeroed, and equality compares the active prefix only).
#[derive(Debug, Clone, Copy)]
pub struct VoltageRefs {
    levels: [f64; MAX_STATES - 1],
    count: u8,
}

impl PartialEq for VoltageRefs {
    fn eq(&self, other: &Self) -> bool {
        self.levels() == other.levels()
    }
}

impl VoltageRefs {
    /// Creates an MLC reference set, validating the ordering.
    ///
    /// # Panics
    ///
    /// Panics unless `va < vb < vc`.
    pub fn new(va: f64, vb: f64, vc: f64) -> Self {
        assert!(va < vb && vb < vc, "references must satisfy va < vb < vc");
        Self::from_levels(&[va, vb, vc])
    }

    /// Creates a reference set from an ordered boundary list (one boundary
    /// per adjacent state pair: 3 for MLC, 7 for TLC, 15 for QLC).
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, exceeds [`MAX_STATES`]` - 1` entries, or
    /// is not strictly increasing.
    pub(crate) fn from_levels(levels: &[f64]) -> Self {
        assert!(
            !levels.is_empty() && levels.len() < MAX_STATES,
            "need 1..={} references, got {}",
            MAX_STATES - 1,
            levels.len()
        );
        assert!(
            levels.windows(2).all(|w| w[0] < w[1]),
            "references must be strictly increasing: {levels:?}"
        );
        let mut stored = [0.0; MAX_STATES - 1];
        stored[..levels.len()].copy_from_slice(levels);
        Self { levels: stored, count: levels.len() as u8 }
    }

    /// The active boundaries, in increasing order.
    pub(crate) fn levels(&self) -> &[f64] {
        &self.levels[..self.count as usize]
    }

    /// Number of boundaries (`n_states - 1`).
    #[allow(clippy::len_without_is_empty)] // never empty by construction
    pub(crate) fn len(&self) -> usize {
        self.count as usize
    }

    /// Number of states the boundaries separate.
    pub(crate) fn n_states(&self) -> usize {
        self.count as usize + 1
    }

    /// The `i`-th boundary (between states `i` and `i + 1`).
    pub(crate) fn level(&self, i: usize) -> f64 {
        self.levels()[i]
    }

    /// Reference separating ER from P1 (MLC accessor).
    pub fn va(&self) -> f64 {
        self.levels[0]
    }

    /// Reference separating P1 from P2 — the single LSB-read reference
    /// (MLC accessor).
    pub fn vb(&self) -> f64 {
        self.levels[1]
    }

    /// Reference separating P2 from P3 (MLC accessor).
    pub fn vc(&self) -> f64 {
        self.levels[2]
    }

    /// Classifies a threshold voltage into the index of the state region it
    /// currently occupies: the number of boundaries at or below `vth`
    /// (a cell sitting exactly on a boundary reads as the upper state).
    pub(crate) fn classify_index(&self, vth: f64) -> usize {
        self.levels().iter().filter(|&&level| vth >= level).count()
    }

    /// Classifies a threshold voltage into the MLC state *region* it
    /// currently occupies under these references.
    ///
    /// # Panics
    ///
    /// Panics when a non-MLC reference set puts `vth` above a fourth
    /// boundary (use `VoltageRefs::classify_index`); debug builds reject
    /// every non-MLC set. The chip's read commands validate the set once
    /// and return `FlashError::FidelityUnsupported` instead.
    pub fn classify(&self, vth: f64) -> CellState {
        debug_assert_eq!(self.n_states(), 4, "CellState classification is MLC-only");
        CellState::from_index(self.classify_index(vth) as u8)
    }

    /// Senses the LSB of an MLC cell: a single comparison at `Vb`.
    pub fn sense_lsb(&self, vth: f64) -> bool {
        vth < self.vb()
    }

    /// Senses the MSB of an MLC cell: comparisons at `Va` and `Vc`.
    pub fn sense_msb(&self, vth: f64) -> bool {
        vth < self.va() || vth >= self.vc()
    }

    /// Returns a copy with every reference shifted by `delta` (the
    /// read-retry primitive: real chips step all references of a wordline).
    pub fn shifted(&self, delta: f64) -> Self {
        let mut shifted = *self;
        for level in &mut shifted.levels[..shifted.count as usize] {
            *level += delta;
        }
        shifted
    }

    /// Returns a copy with only the lowest boundary raised by `delta` — the
    /// disturb-aware re-read primitive (read disturb lifts erased cells
    /// across the lowest boundary; the upper references stay at the factory
    /// points).
    ///
    /// # Panics
    ///
    /// Panics if the raise would reorder the boundaries.
    pub fn with_lowest_raised(&self, delta: f64) -> Self {
        let mut raised = *self;
        raised.levels[0] += delta;
        assert!(
            raised.count == 1 || raised.levels[0] < raised.levels[1],
            "raising the lowest reference by {delta} reorders the boundaries"
        );
        raised
    }
}

impl Default for VoltageRefs {
    /// Default MLC references positioned between the default state means
    /// (see [`crate::params::ChipParams`]).
    fn default() -> Self {
        Self::from_levels(&[100.0, 225.0, 355.0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NOMINAL_VPASS;

    /// A voltage region on the normalized scale, used to describe where a state's
    /// distribution nominally lives (for plots and assertions).
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct StateRegion {
        /// Inclusive lower edge.
        lo: f64,
        /// Exclusive upper edge.
        hi: f64,
    }

    impl StateRegion {
        /// Region assigned to `state` under the given references, with the upper
        /// state bounded above by the nominal `Vpass`.
        fn of(state: CellState, refs: &VoltageRefs) -> Self {
            Self::of_index(state.index() as usize, refs)
        }

        /// Region assigned to state index `i` under the given references.
        fn of_index(i: usize, refs: &VoltageRefs) -> Self {
            let lo = if i == 0 { f64::NEG_INFINITY } else { refs.level(i - 1) };
            let hi = if i == refs.len() { NOMINAL_VPASS } else { refs.level(i) };
            StateRegion { lo, hi }
        }

        /// Whether a voltage falls inside the region.
        fn contains(&self, vth: f64) -> bool {
            vth >= self.lo && vth < self.hi
        }
    }

    /// Bit positions differing between two states' stored values of a
    /// `bits_per_cell`-bit cell (the Gray property makes this 1 for adjacent
    /// states).
    fn state_bit_errors(a: usize, b: usize, bits_per_cell: usize) -> u64 {
        let diff = gray_code(a) ^ gray_code(b);
        (diff & ((1 << bits_per_cell) - 1)).count_ones() as u64
    }

    impl CellState {
        /// Number of bit positions differing between the two states' stored
        /// values (0, 1 or 2). Adjacent states always differ by exactly one bit.
        fn bit_errors_vs(self, other: CellState) -> u64 {
            let (l1, m1) = self.bits();
            let (l2, m2) = other.bits();
            u64::from(l1 != l2) + u64::from(m1 != m2)
        }
    }

    #[test]
    fn gray_map_matches_paper_figure_1() {
        assert_eq!(CellState::Er.bits(), (true, true));
        assert_eq!(CellState::P1.bits(), (true, false));
        assert_eq!(CellState::P2.bits(), (false, false));
        assert_eq!(CellState::P3.bits(), (false, true));
    }

    #[test]
    fn bits_round_trip() {
        for s in ALL_STATES {
            let (l, m) = s.bits();
            assert_eq!(CellState::from_bits(l, m), s);
            assert_eq!(CellState::from_index(s.index()), s);
        }
    }

    #[test]
    fn general_state_bit_reproduces_mlc_gray_map() {
        for s in ALL_STATES {
            let i = s.index() as usize;
            assert_eq!(state_bit(i, 0, 2), s.lsb(), "lsb of {s}");
            assert_eq!(state_bit(i, 1, 2), s.msb(), "msb of {s}");
            for o in ALL_STATES {
                assert_eq!(state_bit_errors(i, o.index() as usize, 2), s.bit_errors_vs(o));
            }
        }
    }

    #[test]
    fn general_gray_map_adjacent_states_differ_by_one_bit() {
        for bits in [1usize, 2, 3, 4] {
            let n = 1 << bits;
            for s in 0..n - 1 {
                assert_eq!(state_bit_errors(s, s + 1, bits), 1, "{bits}-bit cell state {s}");
            }
            // The erased state stores all-ones on every page kind.
            for kind in 0..bits {
                assert!(state_bit(0, kind, bits));
            }
        }
    }

    #[test]
    fn adjacent_states_differ_by_one_bit() {
        for s in ALL_STATES {
            if let Some(up) = s.up() {
                assert_eq!(s.bit_errors_vs(up), 1, "{s} -> {up}");
                assert_eq!(up.down(), Some(s));
            }
        }
        // Non-adjacent ER <-> P2 differ in exactly the LSB? ER=11, P2=00: two bits.
        assert_eq!(CellState::Er.bit_errors_vs(CellState::P2), 2);
        assert_eq!(CellState::P1.bit_errors_vs(CellState::P3), 2);
        assert_eq!(CellState::Er.bit_errors_vs(CellState::Er), 0);
    }

    #[test]
    fn classify_respects_reference_ordering() {
        let refs = VoltageRefs::default();
        assert_eq!(refs.classify(0.0), CellState::Er);
        assert_eq!(refs.classify(150.0), CellState::P1);
        assert_eq!(refs.classify(300.0), CellState::P2);
        assert_eq!(refs.classify(450.0), CellState::P3);
        // Boundary semantics: exactly Va reads as P1.
        assert_eq!(refs.classify(refs.va()), CellState::P1);
        for vth in [-5.0, 0.0, 99.9, 100.0, 224.9, 225.0, 354.9, 355.0, 500.0] {
            assert_eq!(refs.classify_index(vth), refs.classify(vth).index() as usize);
        }
    }

    #[test]
    fn classify_index_handles_non_mlc_counts() {
        let tlc = VoltageRefs::from_levels(&[60.0, 120.0, 180.0, 240.0, 300.0, 360.0, 420.0]);
        assert_eq!(tlc.n_states(), 8);
        assert_eq!(tlc.classify_index(-10.0), 0);
        assert_eq!(tlc.classify_index(60.0), 1);
        assert_eq!(tlc.classify_index(185.0), 3);
        assert_eq!(tlc.classify_index(500.0), 7);
    }

    #[test]
    fn sensing_matches_classification() {
        let refs = VoltageRefs::default();
        for vth in [-20.0, 40.0, 99.9, 100.1, 224.9, 225.1, 354.9, 355.1, 470.0] {
            let state = refs.classify(vth);
            assert_eq!(refs.sense_lsb(vth), state.lsb(), "lsb at {vth}");
            assert_eq!(refs.sense_msb(vth), state.msb(), "msb at {vth}");
        }
    }

    #[test]
    fn shifted_refs_preserve_ordering() {
        let refs = VoltageRefs::default().shifted(-30.0);
        assert!(refs.va() < refs.vb() && refs.vb() < refs.vc());
        assert!((refs.va() - 70.0).abs() < 1e-12);
    }

    #[test]
    fn lowest_raise_leaves_upper_boundaries() {
        let refs = VoltageRefs::default().with_lowest_raised(20.0);
        assert!((refs.va() - 120.0).abs() < 1e-12);
        assert_eq!(refs.vb(), 225.0);
        assert_eq!(refs.vc(), 355.0);
    }

    #[test]
    #[should_panic(expected = "va < vb < vc")]
    fn invalid_refs_panic() {
        let _ = VoltageRefs::new(200.0, 100.0, 300.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_levels_panic() {
        let _ = VoltageRefs::from_levels(&[10.0, 10.0]);
    }

    #[test]
    fn equality_ignores_inactive_slots() {
        let a = VoltageRefs::from_levels(&[1.0, 2.0]);
        let b = VoltageRefs::from_levels(&[1.0, 2.0]);
        let c = VoltageRefs::from_levels(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn state_regions_partition_scale() {
        let refs = VoltageRefs::default();
        for s in ALL_STATES {
            let r = StateRegion::of(s, &refs);
            assert!(r.lo < r.hi);
        }
        assert!(StateRegion::of(CellState::Er, &refs).contains(-10.0));
        assert!(StateRegion::of(CellState::P3, &refs).contains(400.0));
        assert!(!StateRegion::of(CellState::P3, &refs).contains(513.0));
    }
}
