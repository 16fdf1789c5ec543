//! Byte addresses and alignment helpers.
//!
//! The whole study uses physically-addressed caches with 16-byte lines
//! (paper §2.1), so most of the simulator manipulates *line* addresses.
//! [`Addr`] is a thin newtype over `u64` that keeps byte addresses from
//! being confused with line numbers or set indices.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A byte address in the simulated physical address space.
///
/// # Examples
///
/// ```
/// use tlc_trace::Addr;
///
/// let a = Addr::new(0x1234);
/// assert_eq!(a.line(16).0, 0x123);
/// assert_eq!(a.align_down(16), Addr::new(0x1230));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(pub u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache-line number of this address for the given line size.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `line_bytes` is not a power of two.
    #[inline]
    pub fn line(self, line_bytes: u64) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(self.0 >> line_bytes.trailing_zeros())
    }

    /// Rounds this address down to a multiple of `align` (a power of two).
    #[inline]
    pub fn align_down(self, align: u64) -> Addr {
        debug_assert!(align.is_power_of_two());
        Addr(self.0 & !(align - 1))
    }

    /// Returns the byte offset of this address within its `align`-byte block.
    #[inline]
    pub fn offset_in(self, align: u64) -> u64 {
        debug_assert!(align.is_power_of_two());
        self.0 & (align - 1)
    }

    /// Returns this address advanced by `bytes`.
    // Deliberately named like `ops::Add::add`: advancing an address by a
    // byte count is addition, but implementing the operator for
    // `Addr + u64` would invite `Addr + Addr`, which is meaningless.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, bytes: u64) -> Addr {
        Addr(self.0.wrapping_add(bytes))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

/// A cache-line number (a byte address shifted right by `log2(line_bytes)`).
///
/// Line addresses coming from the same [`Addr::line`] call with the same
/// line size are directly comparable; the cache simulator works in this
/// domain exclusively.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LineAddr(pub u64);

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// A half-open address range `[start, start + len)`.
///
/// Used by the synthetic generators to carve the address space into
/// non-overlapping code and data regions.
///
/// # Examples
///
/// ```
/// use tlc_trace::{Addr, AddrRange};
///
/// let r = AddrRange::new(Addr::new(0x1000), 0x100);
/// assert!(r.contains(Addr::new(0x10ff)));
/// assert!(!r.contains(Addr::new(0x1100)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AddrRange {
    start: Addr,
    len: u64,
}

impl AddrRange {
    /// Creates a range starting at `start` spanning `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(start: Addr, len: u64) -> Self {
        assert!(len > 0, "address range must be non-empty");
        AddrRange { start, len }
    }

    /// First byte of the range.
    pub fn start(&self) -> Addr {
        self.start
    }

    /// One past the last byte of the range.
    pub fn end(&self) -> Addr {
        self.start.add(self.len)
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// A range is never empty (enforced at construction); this always
    /// returns `false` and exists for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `addr` falls inside the range.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.start.0 && addr.0 < self.start.0 + self.len
    }

    /// The address `offset` bytes into the range, wrapping around the end.
    #[inline]
    pub fn at_wrapped(&self, offset: u64) -> Addr {
        self.start.add(offset % self.len)
    }

    /// Whether this range overlaps `other`.
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        self.start.0 < other.end().0 && other.start.0 < self.end().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_extraction() {
        let a = Addr::new(0xABCD);
        assert_eq!(a.line(16), LineAddr(0xABC));
        assert_eq!(a.line(64), LineAddr(0x2AF));
    }

    #[test]
    fn align_and_offset() {
        let a = Addr::new(0x1237);
        assert_eq!(a.align_down(16), Addr::new(0x1230));
        assert_eq!(a.offset_in(16), 7);
        assert_eq!(a.add(9), Addr::new(0x1240));
    }

    #[test]
    fn range_contains_boundaries() {
        let r = AddrRange::new(Addr::new(0x100), 0x10);
        assert!(r.contains(Addr::new(0x100)));
        assert!(r.contains(Addr::new(0x10f)));
        assert!(!r.contains(Addr::new(0x110)));
        assert!(!r.contains(Addr::new(0xff)));
    }

    #[test]
    fn range_wrapping() {
        let r = AddrRange::new(Addr::new(0x1000), 0x100);
        assert_eq!(r.at_wrapped(0), Addr::new(0x1000));
        assert_eq!(r.at_wrapped(0xff), Addr::new(0x10ff));
        assert_eq!(r.at_wrapped(0x100), Addr::new(0x1000));
        assert_eq!(r.at_wrapped(0x234), Addr::new(0x1034));
    }

    #[test]
    fn range_overlap() {
        let a = AddrRange::new(Addr::new(0x100), 0x100);
        let b = AddrRange::new(Addr::new(0x1ff), 0x10);
        let c = AddrRange::new(Addr::new(0x200), 0x10);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_panics() {
        let _ = AddrRange::new(Addr::new(0), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::new(0x12).to_string(), "0x00000012");
        assert_eq!(LineAddr(0x12).to_string(), "L0x12");
        assert_eq!(format!("{:x}", Addr::new(0xbeef)), "beef");
    }

    #[test]
    fn conversions() {
        let a: Addr = 5u64.into();
        let r: u64 = a.into();
        assert_eq!(r, 5);
    }
}
