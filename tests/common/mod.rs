//! Shared by the root suites: the executable spec every tiered-send suite
//! is compared against ([`spec`]), the rule table the source-walk suites
//! enforce ([`rules`]), and what counts as product code.

// Each suite uses its own part of this.
#![allow(dead_code)]

pub mod rules;
pub mod spec;

use std::path::Path;
use std::sync::Arc;

use bsoap::obs::{Metrics, VirtualClock};
use bsoap::{Client, EngineConfig, EngineError, OpDesc, SendReport, Value};
use spec::{assert_wire, Delivery, FailingSink, Spec};

fn rust_files(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            out.push((path.display().to_string(), text));
        }
    }
}

/// Every `.rs` file under `src` and `crates/*/src`, as `(path, text)`.
/// `crates/bench` is left out: its bins are drivers, not product code.
pub fn product_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_files(&root.join("src"), &mut sources);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        if krate.file_name().is_some_and(|n| n != "bench") {
            rust_files(&krate.join("src"), &mut sources);
        }
    }
    assert!(sources.len() > 50, "walked {} files", sources.len());
    sources
}

/// A client, its registry and its [`Spec`], stepped together: every call
/// goes down both, and the report, the wire bytes, the registry and the
/// `ClientStats` must be what the spec says before the call returns.
pub struct Rig {
    pub op: OpDesc,
    pub client: Client,
    pub metrics: Arc<Metrics>,
    pub spec: Spec,
    /// What the last delivered send put on the wire.
    pub wire: Vec<u8>,
}

impl Rig {
    pub fn new(op: OpDesc, config: EngineConfig) -> Self {
        // A virtual clock: latency histograms are counted, never timed.
        let metrics = Arc::new(Metrics::with_clock(Arc::new(VirtualClock::new())));
        let mut client = Client::new(config);
        client.set_metrics(Arc::clone(&metrics));
        let (spec, wire) = (Spec::of(&config), Vec::new());
        Rig {
            op,
            client,
            metrics,
            spec,
            wire,
        }
    }

    /// The paper-default configuration on `format`'s lane.
    pub fn on_lane(op: OpDesc, format: bsoap::WireFormat) -> Self {
        Rig::new(op, EngineConfig::paper_default().with_wire_format(format))
    }

    /// §6 cross-endpoint sharing, on both sides.
    pub fn sharing(mut self, on: bool) -> Self {
        self.client.set_endpoint_sharing(on);
        self.spec = self.spec.sharing(on);
        self
    }

    /// A delivered call; returns the (already checked) report.
    pub fn send(&mut self, endpoint: &str, args: &[Value]) -> spec::Verdict<SendReport> {
        self.wire.clear();
        let report = self
            .client
            .call(endpoint, &self.op, args, &mut self.wire)
            .map_err(|e| spec::fail(format!("a healthy sink was refused: {e:?}")))?;
        let delivery = Delivery::Sent(self.wire.len() as u64);
        self.spec.step(endpoint, args, delivery).check(&report)?;
        proptest::prop_assert_eq!(report.bytes, self.wire.len(), "reported vs written bytes");
        assert_wire(self.client.config().wire_format, &self.op, args, &self.wire)?;
        self.check().map(|()| report)
    }

    /// A call whose transport fails; returns the error it surfaced as.
    pub fn fail(
        &mut self,
        endpoint: &str,
        args: &[Value],
        sink: &mut FailingSink,
    ) -> spec::Verdict<EngineError> {
        let Err(e) = self.client.call(endpoint, &self.op, args, sink) else {
            return Err(spec::fail("the failing sink's error was swallowed".into()));
        };
        proptest::prop_assert!(
            matches!(e, EngineError::Io(_) | EngineError::DeadlineExceeded),
            "untyped transport failure: {:?}",
            e
        );
        self.spec.step(endpoint, args, Delivery::Failed);
        self.check().map(|()| e)
    }

    /// Explicit eviction: the engine forgets exactly when the spec does.
    pub fn evict(&mut self, endpoint: &str) {
        let had = self.spec.has_template(endpoint);
        assert_eq!(self.client.evict(endpoint, &self.op), had);
        self.spec.evict(endpoint);
    }

    pub fn check(&self) -> spec::Verdict {
        self.spec.check(&self.metrics.snapshot())?;
        self.spec.check_client(&self.client.stats())
    }
}
