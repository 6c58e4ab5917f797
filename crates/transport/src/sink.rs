//! In-process counting sink.
//!
//! The paper's Send Time measurements stop "right after the final `send()`
//! system call"; the server never parses. A loopback kernel socket still
//! adds scheduler and syscall noise, so for deterministic benchmarking the
//! sink accepts bytes at memory speed, counts them, and touches every
//! byte to model the copy into a socket buffer.

use std::io::{self, IoSlice, Write};

/// Byte-counting discard sink.
///
/// Every accepted byte is read (checksummed), so "sending" is O(bytes) —
/// a stand-in for the kernel's copy into `SO_SNDBUF`, which the paper's
/// numbers include.
#[derive(Debug, Default)]
pub struct SinkTransport {
    bytes: u64,
    checksum: u64,
}

impl SinkTransport {
    /// Sink that models the socket-buffer copy (reads every byte).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes accepted.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes
    }

    /// Rolling checksum over all accepted bytes (prevents the optimizer
    /// from deleting the byte-touch loop; also a cheap corruption canary).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    fn absorb(&mut self, buf: &[u8]) {
        // 64-bit FNV-1a over the payload: one multiply + xor per byte,
        // comparable to a copy loop's per-byte cost.
        let mut h = self.checksum ^ 0xcbf2_9ce4_8422_2325;
        for &b in buf {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.checksum = h;
        self.bytes += buf.len() as u64;
    }
}

impl Write for SinkTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.absorb(buf);
        Ok(buf.len())
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut n = 0;
        for b in bufs {
            self.absorb(b);
            n += b.len();
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A sink that proves (or disproves) zero-copy sends.
///
/// Source buffers are registered up front; every slice the sink receives
/// is classified by pointer identity as **aliased** (it points into a
/// registered buffer — the bytes were never copied on the way here) or
/// **copied** (it lives anywhere else, e.g. an intermediate flattening
/// buffer). The zero-copy acceptance test asserts `copied_body_bytes()`
/// is zero while the wire bytes stay byte-identical to the copying path.
#[derive(Debug, Default)]
pub struct ProvenanceSink {
    ranges: Vec<(usize, usize)>,
    aliased: u64,
    copied: u64,
    out: Vec<u8>,
}

impl ProvenanceSink {
    /// Empty sink with no registered sources.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `buf` as a zero-copy source: slices pointing into it
    /// count as aliased.
    pub fn register(&mut self, buf: &[u8]) {
        let start = buf.as_ptr() as usize;
        self.ranges.push((start, start + buf.len()));
    }

    /// Bytes that arrived still pointing into a registered buffer.
    pub fn aliased_bytes(&self) -> u64 {
        self.aliased
    }

    /// Bytes that arrived from anywhere else (framing, or copies).
    pub fn copied_bytes(&self) -> u64 {
        self.copied
    }

    /// Everything received, in order (for byte-identity checks).
    pub fn bytes(&self) -> &[u8] {
        &self.out
    }

    fn classify(&mut self, buf: &[u8]) {
        let p = buf.as_ptr() as usize;
        let aliased = self
            .ranges
            .iter()
            .any(|&(a, b)| p >= a && p + buf.len() <= b);
        if aliased {
            self.aliased += buf.len() as u64;
        } else {
            self.copied += buf.len() as u64;
        }
        self.out.extend_from_slice(buf);
    }
}

impl Write for ProvenanceSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.classify(buf);
        Ok(buf.len())
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut n = 0;
        for b in bufs {
            self.classify(b);
            n += b.len();
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_gathered_bytes() {
        let mut s = SinkTransport::new();
        let a = b"hello".to_vec();
        let b = b" world".to_vec();
        let n = s
            .write_vectored(&[IoSlice::new(&a), IoSlice::new(&b)])
            .unwrap();
        assert_eq!(n, 11);
        assert_eq!(s.bytes_sent(), 11);
        assert_eq!(s.write_vectored(&[IoSlice::new(&a)]).unwrap(), 5);
        assert_eq!(s.bytes_sent(), 16);
    }

    #[test]
    fn checksum_depends_on_content() {
        let mut a = SinkTransport::new();
        let mut b = SinkTransport::new();
        a.write_all(b"abc").unwrap();
        b.write_all(b"abd").unwrap();
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn works_as_plain_write_sink() {
        let mut s = SinkTransport::new();
        write!(s, "{}-{}", 1, 2).unwrap();
        assert_eq!(s.bytes_sent(), 3);
    }
}
