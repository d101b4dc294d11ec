//! Cross-server duplicate detection — "finding duplicates" from the
//! paper's application list.
//!
//! Two servers each hold a collection of documents and want to know which
//! of their documents also exist on the other server, without shipping the
//! collections. Each document is locally fingerprinted to a 61-bit content
//! hash, the fingerprint sets are intersected with a communication-optimal
//! protocol, and each server reports its own documents whose fingerprints
//! matched. Fingerprint collisions (either within a server or across
//! different contents) are bounded by `|docs|²/2^61`.

use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::Side;
use intersect_core::api::SetIntersection;
use intersect_core::sets::{ElementSet, ProblemSpec};
use intersect_core::tree::TreeProtocol;
use intersect_hash::prime::{mul_mod, M61};

/// A document: opaque bytes plus a caller-supplied label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Caller-visible identifier (not transmitted).
    pub label: String,
    /// Content bytes.
    pub content: Vec<u8>,
}

impl Document {
    /// Creates a document.
    pub fn new(label: impl Into<String>, content: impl Into<Vec<u8>>) -> Self {
        Document {
            label: label.into(),
            content: content.into(),
        }
    }
}

/// Deterministic 61-bit content fingerprint (polynomial over `GF(M61)`).
///
/// Both servers must use the same function, so it is keyed only by fixed
/// constants — equal contents hash equal on both sides.
pub(crate) fn content_fingerprint(content: &[u8]) -> u64 {
    let mut acc = (content.len() as u64) % M61;
    for chunk in content.chunks(7) {
        let mut word = 0u64;
        for (i, &b) in chunk.iter().enumerate() {
            word |= (b as u64) << (8 * i);
        }
        acc = (mul_mod(acc, 0x001f_ffff_ffff_fffb, M61) + word) % M61;
    }
    acc
}

/// The result of a duplicate scan, from one server's perspective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupReport {
    /// Indices (into the local document list) of documents that also exist
    /// on the peer.
    pub duplicated: Vec<usize>,
    /// Number of distinct fingerprints this server contributed.
    pub distinct_local: usize,
}

/// Cross-server duplicate detection over any intersection protocol.
///
/// # Examples
///
/// ```
/// use intersect_apps::dedup::{DedupProtocol, Document};
/// use intersect_comm::runner::{run_two_party, RunConfig, Side};
///
/// let a = vec![
///     Document::new("report.txt", &b"quarterly numbers"[..]),
///     Document::new("notes.md", &b"meeting notes"[..]),
/// ];
/// let b = vec![
///     Document::new("copy-of-report", &b"quarterly numbers"[..]),
///     Document::new("todo", &b"buy milk"[..]),
/// ];
/// let proto = DedupProtocol::default();
/// let out = run_two_party(
///     &RunConfig::with_seed(8),
///     |chan, coins| proto.run(chan, coins, Side::Alice, &a, 16),
///     |chan, coins| proto.run(chan, coins, Side::Bob, &b, 16),
/// )?;
/// assert_eq!(out.alice.duplicated, vec![0]); // report.txt is duplicated
/// assert_eq!(out.bob.duplicated, vec![0]);
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DedupProtocol<P = TreeProtocol> {
    /// The fingerprint-set intersection protocol.
    pub inner: P,
}

impl Default for DedupProtocol<TreeProtocol> {
    fn default() -> Self {
        DedupProtocol {
            inner: TreeProtocol::new(2),
        }
    }
}

impl<P: SetIntersection> DedupProtocol<P> {
    /// Wraps an intersection protocol.
    pub fn new(inner: P) -> Self {
        DedupProtocol { inner }
    }

    /// Runs the scan. `capacity` is the agreed bound on the number of
    /// documents per server (the `k` of the underlying problem).
    ///
    /// # Errors
    ///
    /// Fails if a server holds more than `capacity` distinct fingerprints,
    /// or on protocol failure.
    pub fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        docs: &[Document],
        capacity: u64,
    ) -> Result<DedupReport, ProtocolError> {
        let fingerprints: Vec<u64> = docs
            .iter()
            .map(|d| content_fingerprint(&d.content))
            .collect();
        let set: ElementSet = fingerprints.iter().copied().collect();
        let spec = ProblemSpec::new(M61, capacity.max(1));
        let matched = self
            .inner
            .run(chan, &coins.fork("dedup"), side, spec, &set)?;
        let duplicated = fingerprints
            .iter()
            .enumerate()
            .filter(|(_, fp)| matched.contains(**fp))
            .map(|(i, _)| i)
            .collect();
        Ok(DedupReport {
            duplicated,
            distinct_local: set.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intersect_comm::runner::{run_two_party, RunConfig};

    fn docs(contents: &[&str]) -> Vec<Document> {
        contents
            .iter()
            .enumerate()
            .map(|(i, c)| Document::new(format!("doc{i}"), c.as_bytes().to_vec()))
            .collect()
    }

    fn run_dedup(
        seed: u64,
        a: &[Document],
        b: &[Document],
        cap: u64,
    ) -> (DedupReport, DedupReport) {
        let proto = DedupProtocol::default();
        let out = run_two_party(
            &RunConfig::with_seed(seed),
            |chan, coins| proto.run(chan, coins, Side::Alice, a, cap),
            |chan, coins| proto.run(chan, coins, Side::Bob, b, cap),
        )
        .unwrap();
        (out.alice, out.bob)
    }

    #[test]
    fn duplicates_found_on_both_sides() {
        let a = docs(&["alpha", "beta", "gamma", "delta"]);
        let b = docs(&["gamma", "epsilon", "alpha"]);
        let (ra, rb) = run_dedup(1, &a, &b, 8);
        assert_eq!(ra.duplicated, vec![0, 2]); // alpha, gamma
        assert_eq!(rb.duplicated, vec![0, 2]); // gamma, alpha
    }

    #[test]
    fn no_duplicates() {
        let a = docs(&["one", "two"]);
        let b = docs(&["three", "four"]);
        let (ra, rb) = run_dedup(2, &a, &b, 4);
        assert!(ra.duplicated.is_empty());
        assert!(rb.duplicated.is_empty());
    }

    #[test]
    fn local_copies_all_flagged() {
        // Two local copies of the same content: both indices flagged when
        // the peer has it too.
        let a = docs(&["same", "same", "other"]);
        let b = docs(&["same"]);
        let (ra, _) = run_dedup(3, &a, &b, 4);
        assert_eq!(ra.duplicated, vec![0, 1]);
        assert_eq!(ra.distinct_local, 2);
    }

    #[test]
    fn fingerprint_distinguishes_contents() {
        assert_ne!(
            content_fingerprint(b"hello"),
            content_fingerprint(b"hello!")
        );
        assert_ne!(content_fingerprint(b""), content_fingerprint(b"\0"));
        assert_eq!(
            content_fingerprint(b"stable"),
            content_fingerprint(b"stable")
        );
    }

    #[test]
    fn content_order_matters() {
        assert_ne!(content_fingerprint(b"ab"), content_fingerprint(b"ba"));
    }

    #[test]
    fn empty_collections() {
        let (ra, rb) = run_dedup(4, &[], &docs(&["x"]), 4);
        assert!(ra.duplicated.is_empty());
        assert!(rb.duplicated.is_empty());
    }
}
