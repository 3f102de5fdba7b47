//! Seam spans: the benchmark's own tracing, recorded from outside the
//! program at its two public trait seams.
//!
//! A span is `(name, start, end, parent)`. Spans are kept in memory and
//! summarised when the run ends; nothing is written while timing.
//! [`TimedController`] wraps any [`PowerController`] handed to
//! `ExperimentRunner::run`; [`TimedBackend`] wraps the boxed
//! [`PowerBackend`] handed to `Daemon::new`. Both forward every call
//! unchanged, so the simulation they observe is bit-identical to the
//! unwrapped one (pinned by the tests below and re-checked on every
//! traced run).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use capgpu::controllers::{ControlDiagnostics, ControlInput, PowerController};
use capgpu_backend::{BackendDevice, BackendResult, Capabilities, PowerBackend};
use capgpu_control::model::LinearPowerModel;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let now = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every recorded span (the warm-up segment's), keeping the
    /// epoch.
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
}

/// Count and summed duration of the spans called `name`.
pub fn totals(spans: &[Span], name: &str) -> NameTotal {
    let mut out = NameTotal::default();
    for s in spans.iter().filter(|s| s.name == name) {
        out.count += 1;
        out.total_ns += s.duration_ns();
    }
    out
}

/// Self time (ns) of every span called `name`, in recording order: its
/// duration minus the part of that interval its direct children cover.
pub fn self_times(spans: &[Span], name: &str) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c))
        .collect()
}

/// Shared handle: the wrapper inside the program and the benchmark
/// outside it record into the same store. Single-threaded by design
/// (the traced workloads run on one thread).
pub type SharedRecorder = Rc<RefCell<Recorder>>;

pub fn shared() -> SharedRecorder {
    Rc::new(RefCell::new(Recorder::new()))
}

/// A [`PowerController`] that records one `control` span per call and
/// otherwise forwards everything to the wrapped controller.
pub struct TimedController<C> {
    inner: C,
    rec: SharedRecorder,
    /// Σ solver iterations over all calls (from `diagnostics`).
    pub qp_iterations: u64,
    pub calls: u64,
}

impl<C: PowerController> TimedController<C> {
    pub fn new(inner: C, rec: SharedRecorder) -> Self {
        TimedController {
            inner,
            rec,
            qp_iterations: 0,
            calls: 0,
        }
    }
}

impl<C: PowerController> PowerController for TimedController<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn control(&mut self, input: &ControlInput<'_>) -> capgpu::Result<Vec<f64>> {
        let out = timed(&self.rec, "control", || self.inner.control(input));
        self.calls += 1;
        if let Some(d) = self.inner.diagnostics() {
            self.qp_iterations += d.solver_iterations as u64;
        }
        out
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn uses_delta_sigma(&self) -> bool {
        self.inner.uses_delta_sigma()
    }

    fn set_power_model(&mut self, model: &LinearPowerModel) -> capgpu::Result<()> {
        self.inner.set_power_model(model)
    }

    fn diagnostics(&self) -> Option<ControlDiagnostics> {
        self.inner.diagnostics()
    }
}

/// A [`PowerBackend`] that records a span around every call that can do
/// work (`advance`, the actuate pair, the sense reads) and forwards
/// everything to the wrapped backend.
pub struct TimedBackend {
    inner: Box<dyn PowerBackend>,
    rec: SharedRecorder,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn PowerBackend>, rec: SharedRecorder) -> Self {
        TimedBackend { inner, rec }
    }
}

/// Runs `f` inside a span. The recorder is borrowed only around the
/// call, never across it, so the wrapped code may record nested spans.
fn timed<T>(rec: &SharedRecorder, name: &'static str, f: impl FnOnce() -> T) -> T {
    rec.borrow_mut().enter(name);
    let out = f();
    rec.borrow_mut().exit();
    out
}

/// Span names of the three backend call groups.
pub const BACKEND_ADVANCE: &str = "backend.advance";
pub const BACKEND_ACTUATE: &str = "backend.actuate";
pub const BACKEND_SENSE: &str = "backend.sense";

impl PowerBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn devices(&self) -> &[BackendDevice] {
        self.inner.devices()
    }

    fn set_frequencies(&mut self, targets_mhz: &[f64]) -> BackendResult<()> {
        timed(&self.rec, BACKEND_ACTUATE, || {
            self.inner.set_frequencies(targets_mhz)
        })
    }

    fn effective_frequencies_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        timed(&self.rec, BACKEND_ACTUATE, || {
            self.inner.effective_frequencies_into(out)
        })
    }

    fn set_power_limit(&mut self, device: usize, watts: f64) -> BackendResult<()> {
        self.inner.set_power_limit(device, watts)
    }

    fn advance(&mut self, dt_s: f64) -> BackendResult<Option<f64>> {
        timed(&self.rec, BACKEND_ADVANCE, || self.inner.advance(dt_s))
    }

    fn average_power(&self, last_n: usize) -> Option<f64> {
        timed(&self.rec, BACKEND_SENSE, || {
            self.inner.average_power(last_n)
        })
    }

    fn seconds_since_sample(&self) -> Option<u64> {
        self.inner.seconds_since_sample()
    }

    fn per_device_power_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        timed(&self.rec, BACKEND_SENSE, || {
            self.inner.per_device_power_into(out)
        })
    }

    fn throughput_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        timed(&self.rec, BACKEND_SENSE, || self.inner.throughput_into(out))
    }

    fn is_ejected(&self, device: usize) -> bool {
        timed(&self.rec, BACKEND_SENSE, || self.inner.is_ejected(device))
    }

    fn psu_limit(&self) -> Option<f64> {
        self.inner.psu_limit()
    }

    fn meter_noise_std(&self) -> f64 {
        self.inner.meter_noise_std()
    }

    fn wall_clock_unix_ms(&self) -> Option<u64> {
        self.inner.wall_clock_unix_ms()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capgpu::daemon::DaemonConfig;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            Span {
                name: "step",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "advance",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "inner",
                start_ns: 15,
                end_ns: 25,
                parent: Some(1),
            },
            Span {
                name: "advance",
                start_ns: 50,
                end_ns: 70,
                parent: Some(0),
            },
        ];
        let step = totals(&spans, "step");
        assert_eq!((step.count, step.total_ns), (1, 100));
        assert_eq!(self_times(&spans, "step"), [50]);
        // A grandchild is charged to its parent, not its grandparent.
        let adv = totals(&spans, "advance");
        assert_eq!((adv.count, adv.total_ns), (2, 50));
        assert_eq!(self_times(&spans, "advance"), [20, 20]);
    }

    #[test]
    fn recorder_nests_and_clears() {
        let mut r = Recorder::new();
        r.enter("a");
        r.enter("b");
        r.exit();
        r.exit();
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
        r.clear();
        assert!(r.spans().is_empty());
    }

    /// Fixed actuation schedule through a bare and a wrapped backend:
    /// the power stream must agree to the bit.
    #[test]
    fn timed_backend_passes_the_power_stream_through_unchanged() {
        let mut cfg = DaemonConfig::default_sim();
        cfg.sim_gpus = 3;
        let mut bare = cfg.build_backend().expect("backend");
        let rec = shared();
        let mut wrapped = TimedBackend::new(cfg.build_backend().expect("backend"), rec.clone());
        let n = bare.num_devices();
        assert_eq!(wrapped.num_devices(), n);
        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        for k in 0..200usize {
            let targets: Vec<f64> = bare
                .devices()
                .iter()
                .enumerate()
                .map(|(d, dev)| {
                    let span = dev.f_max_mhz - dev.f_min_mhz;
                    dev.f_min_mhz + span * (((k * (d + 3)) % 11) as f64 / 10.0)
                })
                .collect();
            bare.set_frequencies(&targets).expect("set");
            wrapped.set_frequencies(&targets).expect("set");
            bare.effective_frequencies_into(&mut fa).expect("eff");
            wrapped.effective_frequencies_into(&mut fb).expect("eff");
            assert_eq!(fa, fb);
            let a = bare.advance(1.0).expect("advance");
            let b = wrapped.advance(1.0).expect("advance");
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "second {k}");
            assert_eq!(
                bare.average_power(4).map(f64::to_bits),
                wrapped.average_power(4).map(f64::to_bits)
            );
            bare.per_device_power_into(&mut pa).expect("power");
            wrapped.per_device_power_into(&mut pb).expect("power");
            assert_eq!(pa, pb);
        }
        let spans = rec.borrow();
        assert_eq!(totals(spans.spans(), BACKEND_ADVANCE).count, 200);
        assert_eq!(totals(spans.spans(), BACKEND_ACTUATE).count, 400);
    }
}
