//! The shared template store: sharded, byte-budgeted, multi-tenant
//! template ownership (§ DESIGN 3.14).
//!
//! The paper keeps saved templates inside each client stub; a server
//! fleet wants the inverse — one concurrently-accessed store whose
//! resident bytes are bounded no matter how many tenants show up.
//! [`TemplateStore`] is that store:
//!
//! * **Sharded.** Keys hash onto cache-line-padded mutex shards (the same
//!   padding idiom `bsoap-obs` uses for its counters), so concurrent
//!   clients rarely contend on one lock.
//! * **Budgeted.** A hard global byte budget caps resident template bytes
//!   (plus reserved overlay-window bytes). Admission past the budget
//!   evicts until the store fits again.
//! * **Cost-aware.** Victims are chosen by
//!   [`MessageTemplate::rebuild_estimate`] — the §5 cost model's price of
//!   re-serializing from scratch. Cheap-to-rebuild templates go first;
//!   an expensive template survives a cheap one under pressure, because
//!   evicting it would cost the most to undo.
//! * **Tenant-isolated.** Per-tenant byte quotas stop one hot tenant from
//!   evicting everyone else: a tenant over quota only ever evicts its own
//!   templates.
//!
//! Ownership moves through the store by value: [`TemplateStore::checkout`]
//! removes the best-matching template (its bytes leave the budget
//! immediately — a checked-out template a cost gate later discards can
//! never strand budget), [`TemplateStore::send`] (the one tiered send,
//! [`crate::send`]) diffs and sends it, then [`TemplateStore::admit`]
//! returns it. One checkout is one lookup: `TemplateHits + TemplateMisses`
//! reconciles exactly with the number of checkouts. `send` is the only
//! product caller of the pair; [`TemplateStore::peek`] is the read-only
//! look for everything else.

use crate::cache::{TemplateKey, TemplateSet};
use crate::template::MessageTemplate;
use crate::value::Value;
use bsoap_obs::{Counter, Level, Metrics, Recorder};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of map shards. Power of two, same scale as the obs counter
/// sharding: enough that a worker pool of the sizes this engine runs
/// rarely collides on one lock.
const SHARDS: usize = 16;

/// Store key: tenant plus the template key. Tenant `0` is the
/// single-tenant default, so a lone client pays nothing for the extra
/// dimension.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Tenant identity (billing/isolation domain).
    pub tenant: u64,
    /// Endpoint + structural signature + wire format.
    pub key: TemplateKey,
}

impl StoreKey {
    /// Key for `tenant`'s template for `(endpoint, op)`.
    pub fn new(tenant: u64, key: TemplateKey) -> Self {
        StoreKey { tenant, key }
    }

    fn shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

/// One mutex-guarded shard on its own cache line(s), so shard locks and
/// their map headers never share a line (the `bsoap-obs` counter idiom
/// applied to locks).
#[repr(align(64))]
#[derive(Default)]
struct Shard {
    map: Mutex<HashMap<StoreKey, TemplateSet>>,
}

/// What a [`TemplateStore::checkout`] found.
// Hit is by far the common case on a warm store, and the value is
// consumed immediately at the call site — boxing it would put a heap
// allocation on the hot path to shrink a transient enum.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Checkout {
    /// A usable template, removed from the store (its bytes already left
    /// the budget). Diff, send, then [`TemplateStore::admit`] it back.
    Hit(MessageTemplate),
    /// No template stored under this key at all.
    MissEmpty,
    /// Variants exist, but the best match needs a resize and the set has
    /// room for another shape — build a new variant instead (§6
    /// multi-template policy).
    MissVariant,
}

impl Checkout {
    /// The template, if this was a hit.
    pub fn hit(self) -> Option<MessageTemplate> {
        match self {
            Checkout::Hit(t) => Some(t),
            _ => None,
        }
    }
}

/// Sharded, byte-budgeted, multi-tenant template store.
///
/// Construction pins the budget and quota; `0` means unlimited for both.
/// All methods take `&self` — wrap in an [`Arc`] to share across clients,
/// server cores, or threads.
pub struct TemplateStore {
    shards: [Shard; SHARDS],
    /// Tenant → resident bytes, sharded by tenant id. Entries are removed
    /// when they hit zero so the map stays bounded by *live* tenants.
    tenant_bytes: [Mutex<HashMap<u64, u64>>; SHARDS],
    /// Global resident bytes: templates + overlay reservations.
    resident: AtomicU64,
    /// Reserved (non-template, non-evictable) bytes within `resident`.
    reserved: AtomicU64,
    /// Hard global byte budget (`0` = unlimited).
    budget: u64,
    /// Per-tenant byte quota (`0` = unlimited).
    tenant_quota: u64,
    metrics: OnceLock<Arc<Metrics>>,
}

impl std::fmt::Debug for TemplateStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateStore")
            .field("resident_bytes", &self.resident_bytes())
            .field("budget", &self.budget)
            .field("tenant_quota", &self.tenant_quota)
            .finish()
    }
}

impl TemplateStore {
    /// Store with a global byte budget and per-tenant quota (`0` =
    /// unlimited for either).
    pub fn new(budget_bytes: usize, tenant_quota_bytes: usize) -> Self {
        TemplateStore {
            shards: std::array::from_fn(|_| Shard::default()),
            tenant_bytes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            resident: AtomicU64::new(0),
            reserved: AtomicU64::new(0),
            budget: budget_bytes as u64,
            tenant_quota: tenant_quota_bytes as u64,
            metrics: OnceLock::new(),
        }
    }

    /// Unbudgeted store (both limits off).
    pub fn unbounded() -> Self {
        Self::new(0, 0)
    }

    /// Convenience: a shareable unbudgeted store.
    pub fn shared(budget_bytes: usize, tenant_quota_bytes: usize) -> Arc<Self> {
        Arc::new(Self::new(budget_bytes, tenant_quota_bytes))
    }

    /// Attach an observability registry. First caller wins (the store is
    /// shared; competing registries would split its counters).
    pub fn set_metrics(&self, metrics: Arc<Metrics>) {
        let _ = self.metrics.set(metrics);
    }

    /// The attached registry, if any.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.metrics.get()
    }

    /// The configured global budget in bytes (`0` = unlimited).
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// The configured per-tenant quota in bytes (`0` = unlimited).
    pub fn tenant_quota_bytes(&self) -> u64 {
        self.tenant_quota
    }

    /// Resident bytes right now: stored templates plus reservations.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Bytes currently resident for one tenant.
    pub fn tenant_resident_bytes(&self, tenant: u64) -> u64 {
        let g = self.tenant_bytes[(tenant as usize) % SHARDS]
            .lock()
            .unwrap();
        g.get(&tenant).copied().unwrap_or(0)
    }

    /// Number of keys with at least one stored template.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.lock().unwrap().len())
            .sum()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total templates across all keys.
    pub fn template_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.map
                    .lock()
                    .unwrap()
                    .values()
                    .map(TemplateSet::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Whether any template is stored under `key`.
    pub fn contains(&self, key: &StoreKey) -> bool {
        let g = self.shards[key.shard()].map.lock().unwrap();
        g.get(key).is_some_and(|s| !s.is_empty())
    }

    /// Walk every shard and re-sum template bytes + reservations — the
    /// audit the concurrency tests reconcile [`TemplateStore::resident_bytes`]
    /// against at quiescence.
    pub fn recount_bytes(&self) -> u64 {
        let stored: u64 = self
            .shards
            .iter()
            .map(|s| {
                s.map
                    .lock()
                    .unwrap()
                    .values()
                    .map(|set| set.total_bytes() as u64)
                    .sum::<u64>()
            })
            .sum();
        stored + self.reserved.load(Ordering::Relaxed)
    }

    fn add_resident(&self, tenant: u64, bytes: u64) {
        self.resident.fetch_add(bytes, Ordering::Relaxed);
        let mut g = self.tenant_bytes[(tenant as usize) % SHARDS]
            .lock()
            .unwrap();
        *g.entry(tenant).or_insert(0) += bytes;
        drop(g);
        self.sync_gauge();
    }

    fn sub_resident(&self, tenant: u64, bytes: u64) {
        self.resident.fetch_sub(bytes, Ordering::Relaxed);
        let mut g = self.tenant_bytes[(tenant as usize) % SHARDS]
            .lock()
            .unwrap();
        if let Some(v) = g.get_mut(&tenant) {
            *v = v.saturating_sub(bytes);
            if *v == 0 {
                g.remove(&tenant);
            }
        }
        drop(g);
        self.sync_gauge();
    }

    fn sync_gauge(&self) {
        if let Some(m) = self.metrics.get() {
            m.level_set(
                Level::TemplateBytesResident,
                self.resident.load(Ordering::Relaxed),
            );
        }
    }

    fn tick(&self, c: Counter, n: u64) {
        if n > 0 {
            if let Some(m) = self.metrics.get() {
                m.add(c, n);
            }
        }
    }

    /// Look up the best template for `args` under `key` and, when it can
    /// serve the call without a resize (or the set is already at `cap`
    /// variants), remove and return it. One checkout is one lookup:
    /// exactly one of `TemplateHits` / `TemplateMisses` ticks.
    ///
    /// The removed template's bytes leave the budget immediately, so a
    /// checked-out template that is later discarded (cost fallback,
    /// demotion) can never strand budget — only [`TemplateStore::admit`]
    /// re-charges it.
    pub fn checkout(&self, key: &StoreKey, args: &[Value], cap: usize) -> Checkout {
        let mut g = self.shards[key.shard()].map.lock().unwrap();
        let out = match g.get_mut(key) {
            None => Checkout::MissEmpty,
            Some(set) if set.is_empty() => Checkout::MissEmpty,
            Some(set) => match set.best_match(args) {
                None => Checkout::MissEmpty,
                Some((idx, dist)) => {
                    if dist == 0 || set.len() >= cap.max(1) {
                        let tpl = set.remove(idx);
                        if set.is_empty() {
                            g.remove(key);
                        }
                        Checkout::Hit(tpl)
                    } else {
                        Checkout::MissVariant
                    }
                }
            },
        };
        drop(g);
        match &out {
            Checkout::Hit(tpl) => {
                self.sub_resident(key.tenant, tpl.message_len() as u64);
                self.tick(Counter::TemplateHits, 1);
            }
            _ => self.tick(Counter::TemplateMisses, 1),
        }
        out
    }

    /// Look at the most recently used template under `key` without taking
    /// it out: `look` runs under the shard lock on a shared reference.
    /// Not a send lookup — ticks neither hits nor misses, moves no budget.
    pub fn peek<R>(&self, key: &StoreKey, look: impl FnOnce(&MessageTemplate) -> R) -> Option<R> {
        let g = self.shards[key.shard()].map.lock().unwrap();
        g.get(key)?.templates().first().map(look)
    }

    /// Store `template` as the MRU variant under `key`, keeping at most
    /// `cap` variants there, then enforce the tenant quota and global
    /// budget (cheapest-to-rebuild victims first). Returns the number of
    /// templates evicted to make room (0 when everything fit).
    pub fn admit(&self, key: StoreKey, template: MessageTemplate, cap: usize) -> u64 {
        let tenant = key.tenant;
        let bytes = template.message_len() as u64;
        let mut evicted = 0u64;
        let dropped = {
            let mut g = self.shards[key.shard()].map.lock().unwrap();
            g.entry(key).or_default().insert_evicting(template, cap)
        };
        for tpl in &dropped {
            self.sub_resident(tenant, tpl.message_len() as u64);
            evicted += 1;
        }
        self.add_resident(tenant, bytes);
        if self.tenant_quota > 0 {
            evicted += self.evict_until(Some(tenant), self.tenant_quota);
        }
        if self.budget > 0 {
            evicted += self.evict_until(None, self.budget);
        }
        self.tick(Counter::TemplateEvictions, evicted);
        evicted
    }

    /// A cost-gate fallback discarded a checked-out template. Its bytes
    /// already left the budget at checkout; this only records the loss.
    pub fn note_discard(&self, _template: &MessageTemplate) {
        self.tick(Counter::TemplateEvictions, 1);
    }

    /// Drop every template under `key` (degraded-mode demotion, manual
    /// eviction). Returns how many templates were removed.
    pub fn purge(&self, key: &StoreKey) -> usize {
        let mut g = self.shards[key.shard()].map.lock().unwrap();
        let Some(set) = g.remove(key) else {
            return 0;
        };
        drop(g);
        let n = set.len();
        let bytes = set.total_bytes() as u64;
        if bytes > 0 || n > 0 {
            self.sub_resident(key.tenant, bytes);
        }
        self.tick(Counter::TemplateEvictions, n as u64);
        n
    }

    /// Clone a same-structure, same-format template saved for a
    /// *different* endpoint of the *same tenant* — the §6 cross-endpoint
    /// sharing candidate, tenant-scoped so sharing never leaks bytes
    /// across isolation domains, format-scoped so one lane's bytes never
    /// reach the other lane.
    pub fn find_shareable(&self, key: &StoreKey) -> Option<MessageTemplate> {
        for shard in &self.shards {
            let g = shard.map.lock().unwrap();
            let found = g.iter().find_map(|(k, set)| {
                (k.tenant == key.tenant
                    && k.key.signature == key.key.signature
                    && k.key.format == key.key.format
                    && k.key.endpoint != key.key.endpoint)
                    .then(|| set.templates().first().cloned())
                    .flatten()
            });
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// Reserve non-evictable bytes against the budget (overlay window
    /// fragments live outside the template map but are template memory
    /// all the same). Reservation evicts templates to fit but is itself
    /// never evicted; pair with [`TemplateStore::release`].
    pub fn reserve(&self, tenant: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.reserved.fetch_add(bytes, Ordering::Relaxed);
        self.add_resident(tenant, bytes);
        let mut evicted = 0u64;
        if self.tenant_quota > 0 {
            evicted += self.evict_until(Some(tenant), self.tenant_quota);
        }
        if self.budget > 0 {
            evicted += self.evict_until(None, self.budget);
        }
        self.tick(Counter::TemplateEvictions, evicted);
    }

    /// Return bytes previously taken with [`TemplateStore::reserve`].
    pub fn release(&self, tenant: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.reserved.fetch_sub(bytes, Ordering::Relaxed);
        self.sub_resident(tenant, bytes);
    }

    /// Evict cheapest-to-rebuild templates until the watched byte count
    /// (one tenant's, or the global total) is back under `limit`.
    /// Locks one shard at a time — never two — so concurrent admits
    /// cannot deadlock; the limit is enforced at every admission
    /// boundary, with transient overshoot bounded by in-flight admits.
    fn evict_until(&self, tenant: Option<u64>, limit: u64) -> u64 {
        let mut evicted = 0u64;
        loop {
            let current = match tenant {
                Some(t) => self.tenant_resident_bytes(t),
                None => self.resident.load(Ordering::Relaxed),
            };
            if current <= limit {
                break;
            }
            // Scan for the globally cheapest victim by rebuild estimate.
            let mut victim: Option<(u64, usize, StoreKey)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let g = shard.map.lock().unwrap();
                for (k, set) in g.iter() {
                    if tenant.is_some_and(|t| k.tenant != t) {
                        continue;
                    }
                    for tpl in set.templates() {
                        let score = tpl.rebuild_estimate();
                        if victim.as_ref().is_none_or(|(s, _, _)| score < *s) {
                            victim = Some((score, i, k.clone()));
                        }
                    }
                }
            }
            let Some((_, shard_idx, key)) = victim else {
                // Nothing evictable (reservations alone exceed the limit).
                break;
            };
            let mut g = self.shards[shard_idx].map.lock().unwrap();
            let Some(set) = g.get_mut(&key) else {
                continue; // raced with a concurrent purge; rescan
            };
            let Some(idx) = set
                .templates()
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.rebuild_estimate())
                .map(|(i, _)| i)
            else {
                continue;
            };
            let tpl = set.remove(idx);
            if set.is_empty() {
                g.remove(&key);
            }
            drop(g);
            self.sub_resident(key.tenant, tpl.message_len() as u64);
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::schema::{OpDesc, TypeDesc};
    use bsoap_convert::ScalarKind;
    use bsoap_obs::EngineStats;

    fn arr_op() -> OpDesc {
        OpDesc::single(
            "f",
            "urn:t",
            "a",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        )
    }

    fn arr_tpl(n: usize) -> MessageTemplate {
        MessageTemplate::build(
            EngineConfig::paper_default(),
            &arr_op(),
            &[Value::DoubleArray(vec![0.5; n])],
        )
        .unwrap()
    }

    fn skey(tenant: u64, endpoint: &str) -> StoreKey {
        StoreKey::new(tenant, TemplateKey::new(endpoint, &arr_op()))
    }

    #[test]
    fn checkout_admit_round_trip_accounts_bytes() {
        let store = TemplateStore::unbounded();
        let tpl = arr_tpl(8);
        let bytes = tpl.message_len() as u64;
        store.admit(skey(0, "ep"), tpl, 1);
        assert_eq!(store.resident_bytes(), bytes);
        assert_eq!(store.tenant_resident_bytes(0), bytes);
        assert_eq!(store.recount_bytes(), bytes);

        let out = store
            .checkout(&skey(0, "ep"), &[Value::DoubleArray(vec![0.5; 8])], 1)
            .hit()
            .expect("exact-geometry hit");
        assert_eq!(store.resident_bytes(), 0, "checkout frees bytes at once");
        assert_eq!(store.tenant_resident_bytes(0), 0);
        store.admit(skey(0, "ep"), out, 1);
        assert_eq!(store.resident_bytes(), bytes);
    }

    #[test]
    fn hits_plus_misses_reconcile_with_checkouts() {
        let store = TemplateStore::unbounded();
        let m = Metrics::shared();
        store.set_metrics(Arc::clone(&m));
        let args = [Value::DoubleArray(vec![0.5; 4])];
        let mut checkouts = 0u64;

        // Miss on the empty store, miss-variant with room, hit when full.
        assert!(store.checkout(&skey(0, "ep"), &args, 2).hit().is_none());
        checkouts += 1;
        store.admit(skey(0, "ep"), arr_tpl(9), 2);
        assert!(
            store.checkout(&skey(0, "ep"), &args, 2).hit().is_none(),
            "resize needed and the set has room: build a variant instead"
        );
        checkouts += 1;
        store.admit(skey(0, "ep"), arr_tpl(4), 2);
        let hit = store.checkout(&skey(0, "ep"), &args, 2).hit();
        checkouts += 1;
        store.admit(skey(0, "ep"), hit.unwrap(), 2);

        let s = EngineStats::snapshot(&m);
        assert_eq!(s.get(Counter::TemplateHits), 1);
        assert_eq!(s.get(Counter::TemplateMisses), 2);
        assert_eq!(
            s.get(Counter::TemplateHits) + s.get(Counter::TemplateMisses),
            checkouts
        );
    }

    #[test]
    fn budget_evicts_cheapest_rebuild_first() {
        // Budget sized so the expensive (large) template plus one small
        // one fit, but not two smalls more: the small, cheap-to-rebuild
        // templates must be the victims while the expensive one survives.
        let expensive = arr_tpl(256);
        let small = arr_tpl(4);
        assert!(expensive.rebuild_estimate() > small.rebuild_estimate());
        let budget = expensive.message_len() + small.message_len() + 8;
        let store = TemplateStore::new(budget, 0);
        let m = Metrics::shared();
        store.set_metrics(Arc::clone(&m));

        store.admit(skey(0, "big"), expensive, 1);
        store.admit(skey(0, "s1"), arr_tpl(4), 1);
        // Over budget now: the cheapest of the two smalls goes, never the
        // expensive template.
        store.admit(skey(0, "s2"), arr_tpl(4), 1);
        assert!(store.resident_bytes() <= budget as u64);
        assert!(
            store.contains(&skey(0, "big")),
            "higher rebuild_estimate survives lower under pressure"
        );
        assert_eq!(
            store.template_count(),
            2,
            "exactly one small template was evicted"
        );
        let s = EngineStats::snapshot(&m);
        assert_eq!(s.get(Counter::TemplateEvictions), 1);
        assert_eq!(store.recount_bytes(), store.resident_bytes());
    }

    #[test]
    fn tenant_quota_only_evicts_the_offender() {
        let probe = arr_tpl(4).message_len();
        // Quota fits two small templates per tenant, not three.
        let quota = 2 * probe + 4;
        let store = TemplateStore::new(0, quota);
        store.admit(skey(1, "a"), arr_tpl(4), 1);
        store.admit(skey(2, "a"), arr_tpl(4), 1);
        store.admit(skey(1, "b"), arr_tpl(4), 1);
        store.admit(skey(1, "c"), arr_tpl(4), 1); // tenant 1 over quota
        assert!(store.tenant_resident_bytes(1) <= quota as u64);
        assert_eq!(
            store.tenant_resident_bytes(2),
            probe as u64,
            "tenant 2 untouched by tenant 1's overflow"
        );
        assert_eq!(store.recount_bytes(), store.resident_bytes());
    }

    #[test]
    fn per_key_cap_returns_bytes_of_lru_variant() {
        let store = TemplateStore::unbounded();
        store.admit(skey(0, "ep"), arr_tpl(2), 2);
        store.admit(skey(0, "ep"), arr_tpl(3), 2);
        let two = store.resident_bytes();
        store.admit(skey(0, "ep"), arr_tpl(5), 2); // cap 2: n=2 falls out
        assert!(store.resident_bytes() > 0);
        assert!(
            store.resident_bytes() != two + arr_tpl(5).message_len() as u64,
            "the evicted variant's bytes were returned to the budget"
        );
        assert_eq!(store.template_count(), 2);
        assert_eq!(store.recount_bytes(), store.resident_bytes());
    }

    #[test]
    fn purge_and_discard_accounting() {
        let store = TemplateStore::unbounded();
        let m = Metrics::shared();
        store.set_metrics(Arc::clone(&m));
        store.admit(skey(0, "ep"), arr_tpl(2), 2);
        store.admit(skey(0, "ep"), arr_tpl(3), 2);
        assert_eq!(store.purge(&skey(0, "ep")), 2);
        assert_eq!(store.resident_bytes(), 0);
        assert!(!store.contains(&skey(0, "ep")));

        // Cost-fallback discard: bytes already freed at checkout, the
        // discard only records the eviction.
        store.admit(skey(0, "ep"), arr_tpl(4), 1);
        let t = store
            .checkout(&skey(0, "ep"), &[Value::DoubleArray(vec![0.5; 4])], 1)
            .hit()
            .unwrap();
        assert_eq!(store.resident_bytes(), 0);
        store.note_discard(&t);
        let s = EngineStats::snapshot(&m);
        assert_eq!(s.get(Counter::TemplateEvictions), 3);
    }

    #[test]
    fn reservations_charge_the_budget_but_never_evict_themselves() {
        let probe = arr_tpl(4).message_len();
        let budget = 3 * probe;
        let store = TemplateStore::new(budget, 0);
        store.admit(skey(0, "a"), arr_tpl(4), 1);
        store.reserve(0, (2 * probe + probe / 2) as u64);
        // The reservation pushed the store over budget; the template is
        // the only evictable thing.
        assert_eq!(store.template_count(), 0);
        let floor = store.resident_bytes();
        store.reserve(0, budget as u64); // way over: nothing left to evict
        assert_eq!(store.resident_bytes(), floor + budget as u64);
        store.release(0, budget as u64);
        assert_eq!(store.resident_bytes(), floor);
        assert_eq!(store.recount_bytes(), store.resident_bytes());
    }

    #[test]
    fn find_shareable_is_tenant_scoped() {
        let store = TemplateStore::unbounded();
        store.admit(skey(7, "a"), arr_tpl(5), 1);
        assert!(store.find_shareable(&skey(7, "b")).is_some());
        assert!(
            store.find_shareable(&skey(8, "b")).is_none(),
            "no cross-tenant sharing"
        );
        assert!(
            store.find_shareable(&skey(7, "a")).is_none(),
            "same endpoint is a direct hit, not a share"
        );
        let other_lane = StoreKey::new(
            7,
            TemplateKey::for_format("b", &arr_op(), crate::config::WireFormat::CompactBinary),
        );
        assert!(
            store.find_shareable(&other_lane).is_none(),
            "the saved bytes are a different lane"
        );
    }

    #[test]
    fn level_gauge_tracks_resident_bytes() {
        let store = TemplateStore::unbounded();
        let m = Metrics::shared();
        store.set_metrics(Arc::clone(&m));
        store.admit(skey(0, "ep"), arr_tpl(8), 1);
        assert_eq!(
            m.level_get(Level::TemplateBytesResident),
            store.resident_bytes()
        );
        store.purge(&skey(0, "ep"));
        assert_eq!(m.level_get(Level::TemplateBytesResident), 0);
    }
}
