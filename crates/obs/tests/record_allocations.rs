//! Heap calls on a journal record's write and read paths, counted per
//! thread by a counting global allocator (its own test binary, so that no
//! other test runs under it). A daemon keeps every record it journals, so
//! what a record allocates is what a long-running daemon's memory grows
//! by; a recovering daemon decodes every record it replays, so what a
//! decode allocates beyond what the record owns is recovery time.

use capgpu_obs::analyzer::{HealthAnalyzer, HealthEdge, PeriodSample, Verdict, DETECTORS};
use capgpu_telemetry::journal::{Body, Event, Targets};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its caller's arguments unchanged to the
// same method of `System`, so `GlobalAlloc`'s contract, which the caller
// upholds, is the one `System` needs. The counters are const-initialised
// thread-locals with no destructor: touching them neither allocates nor
// recurses.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the (allocations, reallocations) it made on this thread.
fn heap_calls<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    let out = f();
    let after = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    (out, (after.0 - before.0, after.1 - before.1))
}

/// Nine targets of the widths a daemon commands: whole MHz and
/// fractional ones whose shortest spelling runs to 17 digits.
const MHZ: [f64; 9] = [
    1350.0,
    1_425.517_230_981_2,
    877.123_456_789_012_3,
    1980.0,
    1_102.000_000_000_1,
    645.5,
    1_799.999_999_999_9,
    1_234.567_890_123_4,
    999.000_000_000_01,
];

#[test]
fn targets_are_one_exact_allocation_once_warm() {
    let _warm = Targets::new(&MHZ);
    let (targets, calls) = heap_calls(|| Targets::new(&MHZ));
    assert_eq!(calls, (1, 0), "(allocations, reallocations)");
    let mut back = Vec::new();
    assert!(targets.decode_into(&mut back));
    assert_eq!(back, MHZ);
}

#[test]
fn a_health_record_borrows_its_names() {
    let edge = HealthEdge {
        detector: DETECTORS[0],
        from: Verdict::Ok,
        to: Verdict::Warn,
    };
    let (body, calls) = heap_calls(|| Body::from(&edge));
    assert_eq!(calls, (0, 0), "(allocations, reallocations)");
    assert_eq!(body.kind(), "health");
}

#[test]
fn an_event_renders_in_one_exact_allocation_once_warm() {
    let event = Event {
        period: 1_234_567,
        sim_time_s: 4_938_268.0,
        wall_unix_ms: None,
        body: Body::Period {
            tier: Some(0),
            watts: Some(1_799.366_024_506_2),
            setpoint: Some(1800.0),
            stale: Some(0),
            delta_f_mhz: Some(-12.345_678_901_234_5),
            saturated: Some(false),
            targets: Some(Targets::new(&MHZ[..8])),
        },
    };
    let _warm = event.to_json();
    let (json, calls) = heap_calls(|| event.to_json());
    assert_eq!(calls, (1, 0), "(allocations, reallocations)");
    assert_eq!(json.len(), json.capacity());
    assert_eq!(Event::parse(&json).unwrap(), event);
}

/// The heap calls `Event::parse` makes on `event`'s line, once warm,
/// after checking that the line decodes back to `event`.
fn parse_calls(event: &Event) -> (u64, u64) {
    let line = event.to_json();
    let _warm = Event::parse(&line);
    let (back, calls) = heap_calls(|| Event::parse(&line));
    assert_eq!(back.as_ref(), Ok(event), "{line}");
    calls
}

fn stamped(body: Body) -> Event {
    Event {
        period: 1_234_567,
        sim_time_s: 4_938_268.0,
        wall_unix_ms: None,
        body,
    }
}

#[test]
fn a_period_record_decodes_into_its_targets_box_alone() {
    let period = stamped(Body::Period {
        tier: Some(0),
        watts: Some(1_799.366_024_506_2),
        setpoint: Some(1800.0),
        stale: Some(0),
        delta_f_mhz: Some(-12.345_678_901_234_5),
        saturated: Some(false),
        targets: Some(Targets::new(&MHZ[..8])),
    });
    assert_eq!(parse_calls(&period), (1, 0), "(allocations, reallocations)");
}

#[test]
fn a_health_record_decodes_into_its_three_names_alone() {
    let health = stamped(Body::from(&HealthEdge {
        detector: DETECTORS[0],
        from: Verdict::Ok,
        to: Verdict::Critical,
    }));
    assert_eq!(parse_calls(&health), (3, 0), "(allocations, reallocations)");
}

#[test]
fn a_record_of_numbers_decodes_with_no_heap_call() {
    let gain = stamped(Body::ModelGain {
        device: 7,
        w_per_mhz: 0.136_939_453_488_139_7,
    });
    assert_eq!(parse_calls(&gain), (0, 0), "(allocations, reallocations)");
}

#[test]
fn a_period_whose_verdict_moves_allocates_nothing() {
    let mut analyzer = HealthAnalyzer::default();
    let saturated = PeriodSample {
        power_w: 1795.0,
        cap_w: 1800.0,
        saturated: true,
        ..PeriodSample::default()
    };
    // Saturated throughout: the dwell reaches Warn inside one slow window.
    let (edges, calls) = (0..30)
        .map(|_| heap_calls(|| analyzer.observe(&saturated)))
        .find(|(edges, _)| edges.iter().any(Option::is_some))
        .expect("an edge inside one slow window");
    assert_eq!(
        edges[2],
        Some(HealthEdge {
            detector: "saturation_dwell",
            from: Verdict::Ok,
            to: Verdict::Warn
        })
    );
    assert_eq!(calls, (0, 0), "(allocations, reallocations)");
}

#[cfg(target_pointer_width = "64")]
#[test]
fn an_event_fits_136_bytes() {
    assert!(
        std::mem::size_of::<Event>() <= 136,
        "{}",
        std::mem::size_of::<Event>()
    );
}
