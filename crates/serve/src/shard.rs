//! Consistent-hash sharding: the cluster half of ROADMAP item 2.
//!
//! A [`ShardMap`] is a seeded, deterministic consistent-hash ring with
//! virtual nodes mapping every `(container, chunk)` key to an ordered
//! replica set of cluster members. The map is tiny (a few strings and
//! integers), versioned by an `epoch`, and travels on the wire as one
//! typed frame (`Response::ShardMap`, see `PROTOCOL.md`) — every shard
//! serves the same map, and a client holding a stale one is corrected by
//! a typed `WrongShard` redirect rather than wrong data.
//!
//! Why sharding at all: a node's chunk cache only pays when
//! repeat requests for the *same* chunk reach the *same* node. A uniform
//! smear of the keyspace across a fleet defeats that: every node sees
//! every chunk rarely, so caches stay cold. Consistent hashing
//! concentrates each key on one primary (plus a short replica chain for
//! failover), so each node's working set is ~1/N of the keyspace and its
//! cache sees the full request density for the keys it owns
//! (DESIGN.md §8.3).
//!
//! Determinism is load-bearing: ring points hash the member *names*
//! (never their socket addresses), so ownership is a pure function of
//! `(seed, vnodes, member names)` — two runs of a test cluster on
//! different ephemeral ports assign every key identically, which is what
//! makes the cluster tests' redirect counters reproducible run-to-run.

use crate::protocol::{put_string, BodyReader};
use crate::{Result, ServeError};

/// One cluster member: a stable name (hashed onto the ring) and the
/// socket address clients dial to reach it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMember {
    /// Stable identity hashed onto the ring — survives restarts and
    /// address changes. Renaming a member reassigns its keys; moving it
    /// to a new address does not.
    pub name: String,
    /// Dialable `ip:port` for this member.
    pub addr: String,
}

/// An epoch-numbered consistent-hash ring over the cluster members.
///
/// The ring is rebuilt from the scalar fields on construction (and after
/// wire decode): `vnodes` points per member, each at
/// `hash(seed, name, vnode_index)`. A key `(container, chunk)` hashes to
/// a point and is owned by the first member clockwise; its replica set
/// is the first `replication` *distinct* members clockwise, primary
/// first. Removing one member deletes only that member's points, so only
/// the keys it owned move (~1/N of the keyspace) — the minimal-movement
/// property the `shard.rs` integration tests assert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Map version: a client's map is stale iff its epoch is below the
    /// server's. Epoch 0 is reserved for the implicit single-node map —
    /// a solo server's Hello ack omits the field entirely.
    pub epoch: u64,
    /// Ring seed: reshuffles every assignment when changed.
    pub seed: u64,
    /// Virtual nodes per member (more = better balance, bigger ring).
    pub vnodes: u16,
    /// Replica-set size per key (capped at the member count).
    pub replication: u8,
    /// The cluster members, in shard-index order (a member's position in
    /// this vector *is* its shard index everywhere in the protocol).
    pub members: Vec<ShardMember>,
    /// Sorted ring: `(point, shard index)`, rebuilt, never serialized.
    ring: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Build a map and its ring. `replication` is clamped to
    /// `1..=members.len()`.
    pub fn new(
        epoch: u64,
        seed: u64,
        vnodes: u16,
        replication: u8,
        members: Vec<ShardMember>,
    ) -> ShardMap {
        let mut map = ShardMap {
            epoch,
            seed,
            vnodes: vnodes.max(1),
            replication: replication.max(1).min(members.len().max(1) as u8),
            members,
            ring: Vec::new(),
        };
        map.rebuild();
        map
    }

    /// The implicit map of a server running outside any cluster: one
    /// member owning everything, at the reserved epoch 0.
    pub fn solo(addr: &str) -> ShardMap {
        ShardMap::new(0, 0, 1, 1, vec![ShardMember { name: "solo".into(), addr: addr.into() }])
    }

    /// Members on the ring.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// No members at all (a decoded map may be empty; routing on an
    /// empty map is a caller error surfaced by [`ShardMap::replicas`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    fn rebuild(&mut self) {
        self.ring.clear();
        self.ring.reserve(self.members.len() * self.vnodes as usize);
        for (idx, m) in self.members.iter().enumerate() {
            for v in 0..self.vnodes {
                self.ring.push((point(self.seed, m.name.as_bytes(), v as u64), idx as u32));
            }
        }
        // Tie-break equal points by shard index so the ring order is a
        // pure function of the inputs even under (astronomically rare)
        // hash collisions.
        self.ring.sort_unstable();
    }

    /// Shard index of the key's primary owner. A typed error on an empty
    /// map — routing runs inside serving and training loops, so an
    /// impossible map must never take the process down (PR 8 discipline).
    pub fn owner(&self, container: u32, chunk: u32) -> Result<usize> {
        Ok(self.replicas(container, chunk)?[0])
    }

    /// Ordered replica set for a key: the first `replication` *distinct*
    /// shards clockwise from the key's ring point, primary first. A typed
    /// error on an empty map (there is nowhere to route).
    pub fn replicas(&self, container: u32, chunk: u32) -> Result<Vec<usize>> {
        if self.ring.is_empty() {
            return Err(ServeError::Protocol("routing on an empty shard map".into()));
        }
        let key = key_point(self.seed, container, chunk);
        // First vnode strictly clockwise of (or at) the key's point.
        let start = self.ring.partition_point(|&(p, _)| p < key);
        let mut out = Vec::with_capacity(self.replication as usize);
        for i in 0..self.ring.len() {
            let (_, shard) = self.ring[(start + i) % self.ring.len()];
            if !out.contains(&(shard as usize)) {
                out.push(shard as usize);
                if out.len() == self.replication as usize {
                    break;
                }
            }
        }
        Ok(out)
    }

    /// Does `shard` serve this key (primary or replica)? `false` on an
    /// empty map — nobody serves anything — and for out-of-range indices
    /// (a member that left the cluster serves nothing under the new map).
    pub fn serves(&self, shard: usize, container: u32, chunk: u32) -> bool {
        self.replicas(container, chunk).map(|r| r.contains(&shard)).unwrap_or(false)
    }

    /// Classify installing `new` over the currently-held `cur` — the one
    /// epoch-ordering rule shared by the server push path and the client
    /// map refresh, so both sides agree on what "stale" means:
    ///
    /// * a higher epoch installs;
    /// * a byte-identical re-push of the current map is idempotent (a
    ///   retried `MapPush` must not be an error);
    /// * a lower epoch is stale;
    /// * the *same* epoch with *different* contents is a conflict — two
    ///   maps claiming one version number can never both be right, and
    ///   silently picking one would split the cluster's routing.
    pub fn plan_install(cur: &ShardMap, new: &ShardMap) -> MapInstall {
        if new.epoch > cur.epoch {
            MapInstall::Install
        } else if new == cur {
            MapInstall::Idempotent
        } else if new.epoch < cur.epoch {
            MapInstall::Stale
        } else {
            MapInstall::Conflict
        }
    }

    /// Count the `(container, chunk)` keys `shard` serves across the
    /// given container geometries (`chunks[i]` = chunk count of
    /// container `i`) — the "owned keys" figure in the stats frame.
    pub fn owned_keys(&self, shard: usize, chunks: &[u32]) -> u64 {
        let mut owned = 0;
        for (container, &n) in chunks.iter().enumerate() {
            for chunk in 0..n {
                if self.serves(shard, container as u32, chunk) {
                    owned += 1;
                }
            }
        }
        owned
    }

    /// Serialize the map (scalars + members; the ring is rebuilt on
    /// decode). Layout in `PROTOCOL.md`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.vnodes.to_le_bytes());
        out.push(self.replication);
        out.extend_from_slice(&(self.members.len() as u16).to_le_bytes());
        for m in &self.members {
            put_string(out, &m.name);
            put_string(out, &m.addr);
        }
    }

    /// Parse a map from a body reader and rebuild its ring.
    pub(crate) fn decode(r: &mut BodyReader<'_>) -> Result<ShardMap> {
        let epoch = r.u64()?;
        let seed = r.u64()?;
        let vnodes = r.u16()?;
        let replication = r.u8()?;
        let count = r.u16()? as usize;
        let mut members = Vec::with_capacity(count);
        for _ in 0..count {
            let name = r.string()?;
            let addr = r.string()?;
            members.push(ShardMember { name, addr });
        }
        if members.is_empty() {
            return Err(ServeError::Protocol("shard map has no members".into()));
        }
        Ok(ShardMap::new(epoch, seed, vnodes, replication, members))
    }
}

/// Outcome of [`ShardMap::plan_install`]: what holding map `cur` should
/// do with an incoming map `new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapInstall {
    /// `new.epoch > cur.epoch`: install it.
    Install,
    /// Byte-identical to the current map: accept without reinstalling
    /// (a retried push must be safe).
    Idempotent,
    /// `new.epoch < cur.epoch`: reject, the pusher is behind.
    Stale,
    /// Same epoch, different contents: reject loudly — two maps sharing
    /// one epoch means the control plane is split.
    Conflict,
}

/// Missed-heartbeat accrual failure detector — the sans-I/O half of
/// liveness. The detector never reads a clock or a socket: the transport
/// (test harness, `dcz cluster suspect`, loadgen churn mode) sends
/// `Ping`s on its own schedule and reports each outcome here with an
/// injected timestamp.
/// That is what makes suspicion counts reproducible under seeded replay:
/// two runs feeding the same observation sequence produce the same
/// suspicions, regardless of wall-clock jitter.
///
/// A member is *suspected* after `threshold` consecutive failed beats;
/// one successful beat clears it. Suspicion is advisory — it drives the
/// operator (or churn harness) to push an epoch-bumped map routing
/// around the suspect; the detector itself never mutates routing.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    interval_ms: u64,
    threshold: u32,
    /// Per-member: (consecutive misses, next beat due at, suspected).
    beats: Vec<(u32, u64, bool)>,
    suspicions: u64,
}

impl FailureDetector {
    /// A detector over `members` members (indices follow the shard-index
    /// convention of the map it watches). `interval_ms` spaces beats;
    /// `threshold` consecutive misses mark a member suspected. Both are
    /// clamped to at least 1.
    pub fn new(members: usize, interval_ms: u64, threshold: u32) -> FailureDetector {
        FailureDetector {
            interval_ms: interval_ms.max(1),
            threshold: threshold.max(1),
            beats: vec![(0, 0, false); members],
            suspicions: 0,
        }
    }

    /// Members whose next beat is due at `now_ms` — the transport should
    /// ping each and report the outcome via [`FailureDetector::observe`].
    pub fn due(&self, now_ms: u64) -> Vec<usize> {
        self.beats
            .iter()
            .enumerate()
            .filter(|(_, &(_, due_at, _))| now_ms >= due_at)
            .map(|(i, _)| i)
            .collect()
    }

    /// Record one beat outcome for `member` at `now_ms`. Returns
    /// `Some(member)` exactly when this observation *newly* crosses the
    /// suspicion threshold (the caller's cue to bump the epoch), `None`
    /// otherwise. Out-of-range members are ignored.
    pub fn observe(&mut self, member: usize, ok: bool, now_ms: u64) -> Option<usize> {
        let (misses, due_at, suspected) = self.beats.get_mut(member)?;
        *due_at = now_ms + self.interval_ms;
        if ok {
            *misses = 0;
            *suspected = false;
            return None;
        }
        *misses += 1;
        if *misses >= self.threshold && !*suspected {
            *suspected = true;
            self.suspicions += 1;
            return Some(member);
        }
        None
    }

    /// Is `member` currently suspected?
    pub fn is_suspected(&self, member: usize) -> bool {
        self.beats.get(member).map(|&(_, _, s)| s).unwrap_or(false)
    }

    /// Total suspicion transitions since construction (a counter, not a
    /// level: recovery then re-suspicion counts twice).
    pub fn suspicions(&self) -> u64 {
        self.suspicions
    }
}

/// SplitMix64-style finalizer over a seeded accumulation of bytes: a
/// pure-arithmetic hash so ring placement is identical on every platform
/// and toolchain (no `DefaultHasher`, whose algorithm is unspecified).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Ring point of one virtual node: `hash(seed, member name, vnode)`.
fn point(seed: u64, name: &[u8], vnode: u64) -> u64 {
    let mut acc = mix(seed ^ 0x5AD0_0C0D_E5EE_D001);
    for &b in name {
        acc = mix(acc ^ b as u64);
    }
    mix(acc ^ vnode.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Ring point of one `(container, chunk)` key.
fn key_point(seed: u64, container: u32, chunk: u32) -> u64 {
    mix(mix(seed ^ 0x5AD0_0C0D_E5EE_D002) ^ ((container as u64) << 32 | chunk as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: usize) -> Vec<ShardMember> {
        (0..n)
            .map(|i| ShardMember {
                name: format!("shard{i}"),
                addr: format!("127.0.0.1:{}", 7450 + i),
            })
            .collect()
    }

    #[test]
    fn replicas_are_distinct_and_primary_first() {
        let map = ShardMap::new(1, 42, 64, 2, members(4));
        for container in 0..3u32 {
            for chunk in 0..50u32 {
                let reps = map.replicas(container, chunk).unwrap();
                assert_eq!(reps.len(), 2);
                assert_ne!(reps[0], reps[1]);
                assert_eq!(reps[0], map.owner(container, chunk).unwrap());
                assert!(map.serves(reps[0], container, chunk));
                assert!(map.serves(reps[1], container, chunk));
            }
        }
    }

    #[test]
    fn replication_caps_at_member_count() {
        let map = ShardMap::new(1, 7, 16, 9, members(3));
        assert_eq!(map.replication, 3);
        let reps = map.replicas(0, 0).unwrap();
        assert_eq!(reps.len(), 3);
    }

    #[test]
    fn ownership_ignores_addresses() {
        // Same names, different ports: identical assignment. This is the
        // property that makes the ephemeral-port cluster tests seedable.
        let a = ShardMap::new(1, 9, 32, 2, members(3));
        let moved: Vec<ShardMember> = members(3)
            .into_iter()
            .map(|m| ShardMember { addr: format!("10.0.0.1:{}", 9000), ..m })
            .collect();
        let b = ShardMap::new(1, 9, 32, 2, moved);
        for chunk in 0..100 {
            assert_eq!(a.replicas(0, chunk).unwrap(), b.replicas(0, chunk).unwrap());
        }
    }

    #[test]
    fn solo_map_owns_everything_at_epoch_zero() {
        let map = ShardMap::solo("127.0.0.1:7440");
        assert_eq!(map.epoch, 0);
        for chunk in 0..20 {
            assert_eq!(map.replicas(3, chunk).unwrap(), vec![0]);
        }
    }

    #[test]
    fn wire_roundtrip_rebuilds_an_identical_ring() {
        let map = ShardMap::new(3, 0xDEAD_BEEF, 128, 2, members(5));
        let mut wire = Vec::new();
        map.encode(&mut wire);
        let mut r = BodyReader::new(&wire);
        let back = ShardMap::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, map, "decoded map (including rebuilt ring) must match");
        for chunk in 0..200 {
            assert_eq!(back.replicas(1, chunk).unwrap(), map.replicas(1, chunk).unwrap());
        }
    }

    #[test]
    fn routing_on_an_empty_map_is_a_typed_error_not_a_panic() {
        let map = ShardMap::new(1, 1, 8, 1, Vec::new());
        assert!(map.replicas(0, 0).is_err());
        assert!(map.owner(0, 0).is_err());
        assert!(!map.serves(0, 0, 0));
        assert_eq!(map.owned_keys(0, &[4, 4]), 0);
    }

    #[test]
    fn plan_install_orders_by_epoch_and_flags_conflicts() {
        let cur = ShardMap::new(2, 42, 64, 2, members(3));
        let higher = ShardMap::new(3, 42, 64, 2, members(4));
        let lower = ShardMap::new(1, 42, 64, 2, members(4));
        let twin = ShardMap::new(2, 42, 64, 2, members(4));
        assert_eq!(ShardMap::plan_install(&cur, &higher), MapInstall::Install);
        assert_eq!(ShardMap::plan_install(&cur, &cur.clone()), MapInstall::Idempotent);
        assert_eq!(ShardMap::plan_install(&cur, &lower), MapInstall::Stale);
        assert_eq!(ShardMap::plan_install(&cur, &twin), MapInstall::Conflict);
    }

    #[test]
    fn detector_suspects_after_threshold_and_recovers_on_one_beat() {
        let mut det = FailureDetector::new(3, 100, 3);
        assert_eq!(det.due(0), vec![0, 1, 2]);
        // Two misses: below threshold, no suspicion.
        assert_eq!(det.observe(1, false, 0), None);
        assert_eq!(det.observe(1, false, 100), None);
        assert!(!det.is_suspected(1));
        // Third consecutive miss crosses the threshold exactly once.
        assert_eq!(det.observe(1, false, 200), Some(1));
        assert!(det.is_suspected(1));
        assert_eq!(det.observe(1, false, 300), None, "already suspected: no re-fire");
        assert_eq!(det.suspicions(), 1);
        // One good beat clears it; re-suspicion counts again.
        assert_eq!(det.observe(1, true, 400), None);
        assert!(!det.is_suspected(1));
        for t in 0..3 {
            det.observe(1, false, 500 + t * 100);
        }
        assert_eq!(det.suspicions(), 2);
        // Beats are spaced by the interval, per member: member 1 was last
        // observed at 700, so it is due again at 800; members 0 and 2
        // were never observed and are always due.
        assert_eq!(det.due(750), vec![0, 2]);
        assert_eq!(det.due(800), vec![0, 1, 2]);
        // Out-of-range members are ignored, not a panic.
        assert_eq!(det.observe(9, false, 0), None);
        assert!(!det.is_suspected(9));
    }

    #[test]
    fn empty_member_list_is_a_decode_error() {
        let map = ShardMap::new(1, 1, 8, 1, members(1));
        let mut wire = Vec::new();
        map.encode(&mut wire);
        // Zero out the member count (offset: 8 epoch + 8 seed + 2 vnodes
        // + 1 replication).
        wire[19] = 0;
        wire[20] = 0;
        wire.truncate(21);
        let mut r = BodyReader::new(&wire);
        assert!(ShardMap::decode(&mut r).is_err());
    }
}
