//! [`NvmlBackend`] — NVIDIA GPUs through the NVIDIA Management Library.
//!
//! The paper's testbed actuates GPU clocks with `nvidia-smi -ac` and
//! reads board power through NVML; this backend is the programmatic
//! equivalent: `nvmlDeviceSetApplicationsClocks` /
//! `nvmlDeviceSetPowerManagementLimit` for actuation,
//! `nvmlDeviceGetPowerUsage` and `nvmlDeviceGetClockInfo` for sensing.
//!
//! The ffi layer is an in-tree shim so the workspace never grows a
//! crates.io dependency and always compiles offline:
//!
//! - with `--features nvml`, the `ffi` module declares the handful of
//!   `libnvidia-ml` entry points we use and links against the driver
//!   stack;
//! - without it (the default, and what CI builds), [`NvmlBackend::probe`]
//!   returns [`BackendError::Unavailable`] and no foreign symbols are
//!   referenced at all.
//!
//! Everything above the ffi boundary — device bookkeeping, MHz/mW unit
//! conversion, error mapping — is shared and unit-tested offline.

#[cfg(feature = "nvml")]
use capgpu_sim::DeviceKind;

use crate::{BackendDevice, BackendError, BackendResult, Capabilities, PowerBackend};

/// Raw bindings to the subset of NVML this backend uses. Only compiled
/// (and only linked) when the `nvml` cargo feature is enabled.
#[cfg(feature = "nvml")]
#[allow(non_camel_case_types, missing_docs)]
pub mod ffi {
    use std::os::raw::{c_char, c_int, c_uint};

    pub type nvmlReturn_t = c_int;
    pub type nvmlDevice_t = *mut std::ffi::c_void;
    pub const NVML_SUCCESS: nvmlReturn_t = 0;
    pub const NVML_CLOCK_SM: c_uint = 1;
    pub const NVML_CLOCK_MEM: c_uint = 2;
    pub const NVML_DEVICE_NAME_BUFFER_SIZE: usize = 96;

    #[link(name = "nvidia-ml")]
    extern "C" {
        pub fn nvmlInit_v2() -> nvmlReturn_t;
        pub fn nvmlShutdown() -> nvmlReturn_t;
        pub fn nvmlErrorString(result: nvmlReturn_t) -> *const c_char;
        pub fn nvmlDeviceGetCount_v2(count: *mut c_uint) -> nvmlReturn_t;
        pub fn nvmlDeviceGetHandleByIndex_v2(
            index: c_uint,
            device: *mut nvmlDevice_t,
        ) -> nvmlReturn_t;
        pub fn nvmlDeviceGetName(
            device: nvmlDevice_t,
            name: *mut c_char,
            length: c_uint,
        ) -> nvmlReturn_t;
        pub fn nvmlDeviceGetPowerUsage(device: nvmlDevice_t, mw: *mut c_uint) -> nvmlReturn_t;
        pub fn nvmlDeviceGetClockInfo(
            device: nvmlDevice_t,
            clock_type: c_uint,
            mhz: *mut c_uint,
        ) -> nvmlReturn_t;
        pub fn nvmlDeviceGetMaxClockInfo(
            device: nvmlDevice_t,
            clock_type: c_uint,
            mhz: *mut c_uint,
        ) -> nvmlReturn_t;
        pub fn nvmlDeviceSetApplicationsClocks(
            device: nvmlDevice_t,
            mem_mhz: c_uint,
            sm_mhz: c_uint,
        ) -> nvmlReturn_t;
        pub fn nvmlDeviceGetPowerManagementLimitConstraints(
            device: nvmlDevice_t,
            min_mw: *mut c_uint,
            max_mw: *mut c_uint,
        ) -> nvmlReturn_t;
        pub fn nvmlDeviceSetPowerManagementLimit(
            device: nvmlDevice_t,
            mw: *mut c_uint,
        ) -> nvmlReturn_t;
    }
}

/// NVIDIA GPUs behind the [`PowerBackend`] surface.
///
/// Construct with [`NvmlBackend::probe`]; construction fails cleanly
/// (rather than at link or call time) when the driver stack is absent.
#[derive(Debug)]
pub struct NvmlBackend {
    devices: Vec<BackendDevice>,
    #[cfg(feature = "nvml")]
    handles: Vec<ffi::nvmlDevice_t>,
    /// Server-level samples accumulated by `advance` (sum of boards).
    history: Vec<f64>,
    elapsed_s: u64,
    last_sample_at_s: Option<u64>,
}

impl NvmlBackend {
    /// Initializes NVML and enumerates GPUs.
    ///
    /// # Errors
    /// [`BackendError::Unavailable`] when built without the `nvml`
    /// feature, or when `nvmlInit_v2` fails (no driver, no device);
    /// [`BackendError::Device`] for per-device enumeration failures.
    pub fn probe() -> BackendResult<Self> {
        #[cfg(feature = "nvml")]
        {
            Self::probe_live()
        }
        #[cfg(not(feature = "nvml"))]
        {
            Err(BackendError::Unavailable(
                "built without the `nvml` feature; rebuild with `--features nvml` \
                 on a host with the NVIDIA driver stack"
                    .into(),
            ))
        }
    }

    #[cfg(feature = "nvml")]
    fn probe_live() -> BackendResult<Self> {
        unsafe {
            let rc = ffi::nvmlInit_v2();
            if rc != ffi::NVML_SUCCESS {
                return Err(BackendError::Unavailable(format!(
                    "nvmlInit_v2 failed: {}",
                    nvml_error(rc)
                )));
            }
            let mut count: std::os::raw::c_uint = 0;
            check(ffi::nvmlDeviceGetCount_v2(&mut count), "device count")?;
            let mut devices = Vec::with_capacity(count as usize);
            let mut handles = Vec::with_capacity(count as usize);
            for index in 0..count {
                let mut handle: ffi::nvmlDevice_t = std::ptr::null_mut();
                check(
                    ffi::nvmlDeviceGetHandleByIndex_v2(index, &mut handle),
                    "device handle",
                )?;
                let mut name_buf = [0i8; ffi::NVML_DEVICE_NAME_BUFFER_SIZE];
                check(
                    ffi::nvmlDeviceGetName(
                        handle,
                        name_buf.as_mut_ptr(),
                        ffi::NVML_DEVICE_NAME_BUFFER_SIZE as _,
                    ),
                    "device name",
                )?;
                let name = std::ffi::CStr::from_ptr(name_buf.as_ptr())
                    .to_string_lossy()
                    .into_owned();
                let mut max_sm: std::os::raw::c_uint = 0;
                check(
                    ffi::nvmlDeviceGetMaxClockInfo(handle, ffi::NVML_CLOCK_SM, &mut max_sm),
                    "max SM clock",
                )?;
                let (mut lo_mw, mut hi_mw) = (0, 0);
                let limit = if ffi::nvmlDeviceGetPowerManagementLimitConstraints(
                    handle, &mut lo_mw, &mut hi_mw,
                ) == ffi::NVML_SUCCESS
                {
                    Some((f64::from(lo_mw) / 1000.0, f64::from(hi_mw) / 1000.0))
                } else {
                    None
                };
                devices.push(BackendDevice {
                    index: index as usize,
                    kind: DeviceKind::Gpu,
                    name,
                    // NVML has no "min application clock" query; the
                    // P8 idle clock is the practical floor.
                    f_min_mhz: 135.0,
                    f_max_mhz: f64::from(max_sm),
                    levels_mhz: Vec::new(),
                    power_limit_w: limit,
                });
                handles.push(handle);
            }
            Ok(NvmlBackend {
                devices,
                handles,
                history: Vec::new(),
                elapsed_s: 0,
                last_sample_at_s: None,
            })
        }
    }

    /// Sums the boards' instantaneous power draw (W).
    #[cfg(feature = "nvml")]
    fn read_total_power(&self) -> BackendResult<f64> {
        let mut total = 0.0;
        for &h in &self.handles {
            let mut mw: std::os::raw::c_uint = 0;
            unsafe { check(ffi::nvmlDeviceGetPowerUsage(h, &mut mw), "power usage")? };
            total += f64::from(mw) / 1000.0;
        }
        Ok(total)
    }
}

#[cfg(feature = "nvml")]
fn nvml_error(rc: ffi::nvmlReturn_t) -> String {
    unsafe {
        std::ffi::CStr::from_ptr(ffi::nvmlErrorString(rc))
            .to_string_lossy()
            .into_owned()
    }
}

#[cfg(feature = "nvml")]
fn check(rc: ffi::nvmlReturn_t, what: &str) -> BackendResult<()> {
    if rc == ffi::NVML_SUCCESS {
        Ok(())
    } else {
        Err(BackendError::Device(format!("{what}: {}", nvml_error(rc))))
    }
}

#[cfg(feature = "nvml")]
impl Drop for NvmlBackend {
    fn drop(&mut self) {
        unsafe {
            let _ = ffi::nvmlShutdown();
        }
    }
}

impl PowerBackend for NvmlBackend {
    fn name(&self) -> &str {
        "nvml"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            set_frequency: true,
            set_power_limit: true,
            server_power: true,
            per_device_power: true,
            throughput: false,
            wall_clock: true,
        }
    }

    fn devices(&self) -> &[BackendDevice] {
        &self.devices
    }

    fn set_frequencies(&mut self, targets_mhz: &[f64]) -> BackendResult<()> {
        if targets_mhz.len() != self.devices.len() {
            return Err(BackendError::WrongArity {
                expected: self.devices.len(),
                got: targets_mhz.len(),
            });
        }
        #[cfg(feature = "nvml")]
        {
            for (i, &t) in targets_mhz.iter().enumerate() {
                let h = self.handles[i];
                let mut mem: std::os::raw::c_uint = 0;
                unsafe {
                    check(
                        ffi::nvmlDeviceGetMaxClockInfo(h, ffi::NVML_CLOCK_MEM, &mut mem),
                        "max mem clock",
                    )?;
                    check(
                        ffi::nvmlDeviceSetApplicationsClocks(h, mem, t.round() as _),
                        "set applications clocks",
                    )?;
                }
            }
            Ok(())
        }
        #[cfg(not(feature = "nvml"))]
        {
            Err(BackendError::Unavailable("nvml feature disabled".into()))
        }
    }

    fn effective_frequencies_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        out.clear();
        #[cfg(feature = "nvml")]
        {
            for &h in &self.handles {
                let mut mhz: std::os::raw::c_uint = 0;
                unsafe {
                    check(
                        ffi::nvmlDeviceGetClockInfo(h, ffi::NVML_CLOCK_SM, &mut mhz),
                        "SM clock",
                    )?;
                }
                out.push(f64::from(mhz));
            }
            Ok(())
        }
        #[cfg(not(feature = "nvml"))]
        {
            Err(BackendError::Unavailable("nvml feature disabled".into()))
        }
    }

    fn set_power_limit(&mut self, device: usize, watts: f64) -> BackendResult<()> {
        if device >= self.devices.len() {
            return Err(BackendError::NoSuchDevice(device));
        }
        #[cfg(feature = "nvml")]
        {
            let mut mw = (watts * 1000.0).round() as std::os::raw::c_uint;
            unsafe {
                check(
                    ffi::nvmlDeviceSetPowerManagementLimit(self.handles[device], &mut mw),
                    "set power limit",
                )
            }
        }
        #[cfg(not(feature = "nvml"))]
        {
            let _ = watts;
            Err(BackendError::Unavailable("nvml feature disabled".into()))
        }
    }

    fn advance(&mut self, dt_s: f64) -> BackendResult<Option<f64>> {
        if !(dt_s > 0.0 && dt_s.is_finite()) {
            return Err(BackendError::Unsupported("advance requires dt_s > 0"));
        }
        // Live plant: let wall time pass, then poll the boards.
        std::thread::sleep(std::time::Duration::from_secs_f64(dt_s));
        self.elapsed_s += dt_s.round() as u64;
        #[cfg(feature = "nvml")]
        {
            let p = self.read_total_power()?;
            self.history.push(p);
            if self.history.len() > 1024 {
                self.history.remove(0);
            }
            self.last_sample_at_s = Some(self.elapsed_s);
            Ok(Some(p))
        }
        #[cfg(not(feature = "nvml"))]
        {
            Err(BackendError::Unavailable("nvml feature disabled".into()))
        }
    }

    fn average_power(&self, last_n: usize) -> Option<f64> {
        if last_n == 0 || self.history.is_empty() {
            return None;
        }
        let n = last_n.min(self.history.len());
        Some(self.history.iter().rev().take(n).sum::<f64>() / n as f64)
    }

    fn seconds_since_sample(&self) -> Option<u64> {
        self.last_sample_at_s.map(|at| self.elapsed_s - at)
    }

    fn per_device_power_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        out.clear();
        #[cfg(feature = "nvml")]
        {
            for &h in &self.handles {
                let mut mw: std::os::raw::c_uint = 0;
                unsafe { check(ffi::nvmlDeviceGetPowerUsage(h, &mut mw), "power usage")? };
                out.push(f64::from(mw) / 1000.0);
            }
            Ok(())
        }
        #[cfg(not(feature = "nvml"))]
        {
            Err(BackendError::Unavailable("nvml feature disabled".into()))
        }
    }

    fn wall_clock_unix_ms(&self) -> Option<u64> {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .ok()
            .map(|d| d.as_millis() as u64)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(all(test, not(feature = "nvml")))]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_unavailable_offline() {
        match NvmlBackend::probe() {
            Err(BackendError::Unavailable(msg)) => {
                assert!(
                    msg.contains("nvml"),
                    "message should name the feature: {msg}"
                );
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }
}
