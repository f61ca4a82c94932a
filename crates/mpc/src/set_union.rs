//! Secure set union `∪_s` (paper §3.4).
//!
//! Same relay skeleton as [`crate::set_intersection`]: every set
//! acquires all `n` encryption layers on its way around the ring. The
//! collector keeps **one copy of any redundant entries** among the
//! fully-encrypted elements (equal plaintexts have equal n-fold
//! ciphertexts) and recovers the union's plaintexts with a decryption
//! pass — "without revealing the owner(s) of each of the items":
//! because deduplication and decryption happen on the merged list,
//! nobody learns which party contributed which element.

use crate::report::{Meter, ProtocolReport};
use crate::MpcError;
use dla_bigint::Ubig;
use dla_crypto::pohlig_hellman::{CommutativeDomain, PhKey};
use dla_net::topology::Ring;
use dla_net::wire::{Reader, Writer};
use dla_net::{NodeId, Session, SimLink, SimNet};
use rand::Rng;
use std::collections::BTreeSet;

/// Result of a secure set union run.
#[derive(Debug, Clone)]
pub struct UnionOutcome {
    /// The union's plaintext items (sorted; ownership not attributable).
    pub items: Vec<Vec<u8>>,
    /// Cost accounting.
    pub report: ProtocolReport,
}

impl UnionOutcome {
    /// Union cardinality.
    #[must_use]
    pub fn cardinality(&self) -> usize {
        self.items.len()
    }
}

/// Runs `∪_s` over the ring. `inputs[i]` is the private set of ring
/// position `i`.
///
/// # Errors
///
/// Returns [`MpcError`] on network failure, malformed payloads or
/// unencodable items.
///
/// # Panics
///
/// Panics if `inputs.len() != ring.len()`.
pub fn secure_set_union<R: Rng + ?Sized>(
    net: &mut SimNet,
    ring: &Ring,
    domain: &CommutativeDomain,
    inputs: &[Vec<Vec<u8>>],
    collector: NodeId,
    rng: &mut R,
) -> Result<UnionOutcome, MpcError> {
    let link = SimLink::new(net);
    let session = Session::root(&link);
    run(&session, ring, domain, inputs, collector, rng)
}

/// A `∪_s` protocol instance bound to one transport session, so several
/// unions (or a union and any other protocol) can be in flight over the
/// same network at once.
#[derive(Clone, Copy, Debug)]
pub struct UnionSession<'a> {
    session: Session<'a>,
    ring: &'a Ring,
    domain: &'a CommutativeDomain,
    collector: NodeId,
}

impl<'a> UnionSession<'a> {
    /// Binds a union instance to `session`.
    #[must_use]
    pub fn new(
        session: Session<'a>,
        ring: &'a Ring,
        domain: &'a CommutativeDomain,
        collector: NodeId,
    ) -> Self {
        UnionSession {
            session,
            ring,
            domain,
            collector,
        }
    }

    /// Runs the union over this instance's session.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError`] on network failure, malformed payloads or
    /// unencodable items.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != ring.len()`.
    pub fn run<R: Rng + ?Sized>(
        &self,
        inputs: &[Vec<Vec<u8>>],
        rng: &mut R,
    ) -> Result<UnionOutcome, MpcError> {
        run(
            &self.session,
            self.ring,
            self.domain,
            inputs,
            self.collector,
            rng,
        )
    }
}

fn run<R: Rng + ?Sized>(
    net: &Session<'_>,
    ring: &Ring,
    domain: &CommutativeDomain,
    inputs: &[Vec<Vec<u8>>],
    collector: NodeId,
    rng: &mut R,
) -> Result<UnionOutcome, MpcError> {
    let n = ring.len();
    assert_eq!(inputs.len(), n, "one input set per ring position");
    let meter = Meter::start_session(net);
    let _telemetry = crate::report::SessionTelemetry::begin(net, "secure-set-union");

    let keys: Vec<PhKey> = (0..n).map(|_| PhKey::generate(domain, rng)).collect();

    // Owner encryption. To thwart position-based linking, each owner
    // shuffles its set before sending (BTreeSet ordering of ciphertexts
    // is unrelated to plaintext order anyway after one layer).
    let mut sets: Vec<Vec<Ubig>> = Vec::with_capacity(n);
    for (i, raw) in inputs.iter().enumerate() {
        let canonical: BTreeSet<Vec<u8>> = raw.iter().cloned().collect();
        let encoded: Vec<Ubig> = canonical
            .iter()
            .map(|item| domain.encode(item).map_err(MpcError::from))
            .collect::<Result<_, MpcError>>()?;
        sets.push(keys[i].encrypt_batch(&encoded));
    }

    // Relay rounds.
    #[allow(clippy::needless_range_loop)] // origin indexes sets/history in parallel
    for hop in 1..n {
        for origin in 0..n {
            let from = ring.at((origin + hop - 1) % n);
            let to = ring.at((origin + hop) % n);
            net.send(from, to, encode_msg(&sets[origin]));
            let envelope = net.recv_from(to, from)?;
            let elements = decode_msg(&envelope.payload)?;
            let holder = (origin + hop) % n;
            sets[origin] = keys[holder].encrypt_batch(&elements);
        }
    }

    // Collect and deduplicate ("keeping only one copy of any redundant
    // entries").
    let mut merged: BTreeSet<Vec<u8>> = BTreeSet::new();
    #[allow(clippy::needless_range_loop)] // origin indexes sets and ring positions together
    for origin in 0..n {
        let final_holder = ring.at((origin + n - 1) % n);
        net.send(final_holder, collector, encode_msg(&sets[origin]));
        let envelope = net.recv_from(collector, final_holder)?;
        for e in decode_msg(&envelope.payload)? {
            merged.insert(e.to_bytes_be());
        }
    }
    let mut current: Vec<Ubig> = merged.iter().map(|b| Ubig::from_bytes_be(b)).collect();

    // Decryption pass around the ring.
    let mut holder = collector;
    #[allow(clippy::needless_range_loop)] // pos walks the ring and the key table together
    for pos in 0..n {
        let node = ring.at(pos);
        net.send(holder, node, encode_msg(&current));
        let envelope = net.recv_from(node, holder)?;
        current = keys[pos].decrypt_batch(&decode_msg(&envelope.payload)?);
        holder = node;
    }
    net.send(holder, collector, encode_msg(&current));
    let envelope = net.recv_from(collector, holder)?;
    let mut items: Vec<Vec<u8>> = decode_msg(&envelope.payload)?
        .iter()
        .map(|e| domain.decode(e))
        .collect();
    items.sort();
    items.dedup();

    let rounds = (n - 1) + 1 + (n + 1);
    let report = meter.finish_session(net, "secure-set-union", n, rounds);
    Ok(UnionOutcome { items, report })
}

fn encode_msg(elements: &[Ubig]) -> bytes::Bytes {
    let mut w = Writer::new();
    w.put_u8(0x02).put_list(elements, |w, e| {
        w.put_bytes(&e.to_bytes_be());
    });
    w.finish()
}

fn decode_msg(payload: &[u8]) -> Result<Vec<Ubig>, MpcError> {
    let mut r = Reader::new(payload);
    let tag = r.get_u8()?;
    if tag != 0x02 {
        return Err(MpcError::Wire(format!("unexpected message tag {tag}")));
    }
    let elements = r.get_list(|r| r.get_bytes().map(Ubig::from_bytes_be))?;
    r.finish()?;
    Ok(elements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_net::NetConfig;
    use rand::SeedableRng;

    fn items(names: &[&str]) -> Vec<Vec<u8>> {
        names.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    fn setup(n: usize) -> (SimNet, Ring, CommutativeDomain, rand::rngs::StdRng) {
        (
            SimNet::new(n, NetConfig::ideal()),
            Ring::canonical(n),
            CommutativeDomain::fixed_256(),
            rand::rngs::StdRng::seed_from_u64(2000),
        )
    }

    #[test]
    fn union_of_overlapping_sets() {
        let (mut net, ring, domain, mut rng) = setup(3);
        let inputs = vec![
            items(&["c", "d", "e"]),
            items(&["d", "e", "f"]),
            items(&["e", "f", "g"]),
        ];
        let outcome =
            secure_set_union(&mut net, &ring, &domain, &inputs, NodeId(0), &mut rng).unwrap();
        assert_eq!(outcome.items, items(&["c", "d", "e", "f", "g"]));
        assert_eq!(outcome.cardinality(), 5);
    }

    #[test]
    fn union_of_disjoint_sets_is_concatenation() {
        let (mut net, ring, domain, mut rng) = setup(2);
        let inputs = vec![items(&["a", "b"]), items(&["c"])];
        let outcome =
            secure_set_union(&mut net, &ring, &domain, &inputs, NodeId(1), &mut rng).unwrap();
        assert_eq!(outcome.items, items(&["a", "b", "c"]));
    }

    #[test]
    fn duplicates_across_parties_collapse() {
        let (mut net, ring, domain, mut rng) = setup(4);
        let inputs = vec![items(&["x"]), items(&["x"]), items(&["x"]), items(&["x"])];
        let outcome =
            secure_set_union(&mut net, &ring, &domain, &inputs, NodeId(0), &mut rng).unwrap();
        assert_eq!(outcome.items, items(&["x"]));
    }

    #[test]
    fn empty_inputs_yield_empty_union() {
        let (mut net, ring, domain, mut rng) = setup(3);
        let inputs = vec![vec![], vec![], vec![]];
        let outcome =
            secure_set_union(&mut net, &ring, &domain, &inputs, NodeId(0), &mut rng).unwrap();
        assert!(outcome.items.is_empty());
    }

    #[test]
    fn some_empty_some_not() {
        let (mut net, ring, domain, mut rng) = setup(3);
        let inputs = vec![vec![], items(&["q"]), vec![]];
        let outcome =
            secure_set_union(&mut net, &ring, &domain, &inputs, NodeId(2), &mut rng).unwrap();
        assert_eq!(outcome.items, items(&["q"]));
    }

    #[test]
    fn message_count_matches_protocol_structure() {
        for n in [2usize, 4] {
            let (mut net, ring, domain, mut rng) = setup(n);
            let inputs = vec![items(&["a"]); n];
            let outcome =
                secure_set_union(&mut net, &ring, &domain, &inputs, NodeId(0), &mut rng).unwrap();
            // n(n−1) relay + n collect + (n+1) decrypt-pass messages.
            assert_eq!(
                outcome.report.messages as usize,
                n * (n - 1) + n + n + 1,
                "n={n}"
            );
        }
    }

    #[test]
    fn dropped_message_is_detected() {
        let (mut net, ring, domain, mut rng) = setup(3);
        net.faults_mut()
            .inject_once(1, 2, dla_net::fault::FaultOutcome::Drop);
        let inputs = vec![items(&["a"]), items(&["b"]), items(&["c"])];
        assert!(secure_set_union(&mut net, &ring, &domain, &inputs, NodeId(0), &mut rng).is_err());
    }
}
