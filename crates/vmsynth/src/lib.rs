//! # snapedge-vmsynth
//!
//! A model of **VM synthesis** (Ha et al., "Just-in-time provisioning for
//! cyber foraging" \[14\], via the elijah-cloudlet project \[26\]): the
//! mechanism the paper uses to install its offloading system on an edge
//! server that does not have it (Section III-B.3, evaluated in Table I).
//!
//! The client carries a *VM overlay* — the LZMA-compressed difference
//! between a base VM image (stock Ubuntu) and the customized image that
//! adds the browser, support libraries, the offloading server program, and
//! optionally the DNN model. The edge server downloads the overlay and
//! *synthesizes* a running VM by applying it to the base image it already
//! has.
//!
//! ## Calibration (derived from the paper's own Table I)
//!
//! The overlay components are: browser ≈ 45 MB, libraries ≈ 54 MB, server
//! program ≈ 1 MB, plus the model (27 or 44 MB). Solving the two published
//! overlay sizes (65 MB with GoogLeNet, 82 MB with Age/GenderNet) gives a
//! compression ratio of ≈ 0.38 for software and ≈ 1.0 for model
//! parameters — trained float weights are effectively incompressible,
//! which is itself a finding worth reproducing. Synthesis time is overlay
//! upload at 30 Mbps plus a ≈ 60 MiB/s decompress-and-apply pass.
//!
//! # Example
//!
//! ```
//! use snapedge_vmsynth::{offloading_overlay, SynthesisConfig};
//!
//! let overlay = offloading_overlay("googlenet", 27 * 1024 * 1024);
//! let mib = overlay.compressed_size() / (1024 * 1024);
//! assert!((63..=67).contains(&mib)); // Table I: 65 MB
//! let apply = SynthesisConfig::default().apply_time(&overlay);
//! assert!(apply.as_secs_f64() < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

/// Content class of a file, which determines how well it compresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentClass {
    /// Executables and shared libraries (compress well: ratio ≈ 0.38).
    Software,
    /// Plain text / configuration (ratio ≈ 0.25).
    Text,
    /// Trained DNN parameters (high-entropy floats, ratio ≈ 1.0).
    ModelParams,
}

impl ContentClass {
    /// LZMA-like compression ratio (compressed / raw).
    pub fn compression_ratio(self) -> f64 {
        match self {
            ContentClass::Software => 0.38,
            ContentClass::Text => 0.25,
            ContentClass::ModelParams => 0.995,
        }
    }
}

/// A file inside a VM image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmFile {
    /// Path within the image.
    pub name: String,
    /// Raw (uncompressed) size in bytes.
    pub size: u64,
    /// Content class (drives compressibility).
    pub class: ContentClass,
}

/// A VM disk image as a named file list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmImage {
    name: String,
    files: Vec<VmFile>,
}

impl VmImage {
    /// An image with no files.
    pub fn new(name: &str) -> VmImage {
        VmImage {
            name: name.to_string(),
            files: Vec::new(),
        }
    }

    /// The image name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a file, builder-style.
    pub fn with_file(mut self, name: &str, size: u64, class: ContentClass) -> VmImage {
        self.files.push(VmFile {
            name: name.to_string(),
            size,
            class,
        });
        self
    }

    /// The file list.
    pub fn files(&self) -> &[VmFile] {
        &self.files
    }

    /// Total raw size.
    pub fn total_size(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// `true` when a file with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.files.iter().any(|f| f.name == name)
    }
}

/// The base VM image every edge server is assumed to hold: the paper
/// synthesizes against "a base VM image of Ubuntu 12.04".
pub fn base_image() -> VmImage {
    VmImage::new("ubuntu-12.04-base")
        .with_file("/boot/vmlinuz", 5 * 1024 * 1024, ContentClass::Software)
        .with_file("/usr", 550 * 1024 * 1024, ContentClass::Software)
        .with_file("/etc", 8 * 1024 * 1024, ContentClass::Text)
}

/// An LZMA-compressed overlay: the file-level difference between a
/// customized image and the base image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Overlay {
    name: String,
    files: Vec<VmFile>,
    compressed: u64,
}

impl Overlay {
    /// Builds the overlay of `customized` over `base`: every file that the
    /// base image does not already contain, compressed per content class.
    pub fn build(base: &VmImage, customized: &VmImage) -> Overlay {
        let files: Vec<VmFile> = customized
            .files()
            .iter()
            .filter(|f| !base.contains(&f.name))
            .cloned()
            .collect();
        let compressed = files
            .iter()
            .map(|f| (f.size as f64 * f.class.compression_ratio()).ceil() as u64)
            .sum();
        Overlay {
            name: format!("{}-over-{}", customized.name(), base.name()),
            files,
            compressed,
        }
    }

    /// Overlay name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Files carried by the overlay.
    pub fn files(&self) -> &[VmFile] {
        &self.files
    }

    /// Raw (uncompressed) payload size.
    pub fn raw_size(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Compressed size — what actually travels to the edge server
    /// (Table I's "VM overlay (MB)" column).
    pub fn compressed_size(&self) -> u64 {
        self.compressed
    }
}

/// Edge-server-side synthesis parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisConfig {
    /// Decompress-and-apply throughput in bytes of *compressed* overlay
    /// per second.
    pub apply_throughput: f64,
    /// Fixed VM launch cost after the overlay is applied.
    pub launch: Duration,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            apply_throughput: 60.0 * 1024.0 * 1024.0,
            launch: Duration::from_millis(300),
        }
    }
}

impl SynthesisConfig {
    /// Time to decompress and apply an overlay and launch the VM instance
    /// (excludes network upload, which the caller schedules on its link).
    pub fn apply_time(&self, overlay: &Overlay) -> Duration {
        Duration::from_secs_f64(overlay.compressed_size() as f64 / self.apply_throughput)
            + self.launch
    }
}

const MIB: u64 = 1024 * 1024;

/// The customized image for the paper's offloading system: base +
/// browser (~45 MB) + support libraries (~54 MB) + offloading server
/// program (~1 MB) + the app's DNN model.
pub fn offloading_image(model_name: &str, model_bytes: u64) -> VmImage {
    let mut image = base_image();
    image = image
        .with_file("/opt/webkit-browser", 45 * MIB, ContentClass::Software)
        .with_file("/opt/support-libs", 54 * MIB, ContentClass::Software)
        .with_file("/opt/offload-server", MIB, ContentClass::Software);
    if model_bytes > 0 {
        image = image.with_file(
            &format!("/opt/models/{model_name}"),
            model_bytes,
            ContentClass::ModelParams,
        );
    }
    image
}

/// Convenience: the overlay a client carries to dynamically install the
/// offloading system (with the DNN model baked in, which doubles as
/// pre-sending — Section III-B.3).
pub fn offloading_overlay(model_name: &str, model_bytes: u64) -> Overlay {
    Overlay::build(&base_image(), &offloading_image(model_name, model_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_excludes_base_files() {
        let overlay = offloading_overlay("m", 10 * MIB);
        assert!(!overlay.files().iter().any(|f| f.name == "/usr"));
        assert_eq!(overlay.files().len(), 4);
    }

    #[test]
    fn overlay_size_matches_table1_googlenet() {
        // Table I: GoogLeNet overlay = 65 MB.
        let overlay = offloading_overlay("googlenet", (26.7 * MIB as f64) as u64);
        let mib = overlay.compressed_size() as f64 / MIB as f64;
        assert!((63.0..67.0).contains(&mib), "got {mib} MiB");
    }

    #[test]
    fn overlay_size_matches_table1_agenet() {
        // Table I: AgeNet/GenderNet overlay = 82 MB.
        let overlay = offloading_overlay("agenet", (43.5 * MIB as f64) as u64);
        let mib = overlay.compressed_size() as f64 / MIB as f64;
        assert!((79.0..85.0).contains(&mib), "got {mib} MiB");
    }

    #[test]
    fn model_params_barely_compress_but_software_does() {
        assert!(ContentClass::ModelParams.compression_ratio() > 0.9);
        assert!(ContentClass::Software.compression_ratio() < 0.5);
    }

    #[test]
    fn overlay_without_model_is_smaller() {
        let with = offloading_overlay("m", 40 * MIB);
        let without = offloading_overlay("m", 0);
        assert!(without.compressed_size() < with.compressed_size());
        assert_eq!(without.files().len(), 3);
    }

    #[test]
    fn apply_time_scales_with_overlay_size() {
        let cfg = SynthesisConfig::default();
        let small = offloading_overlay("m", 0);
        let large = offloading_overlay("m", 100 * MIB);
        assert!(cfg.apply_time(&large) > cfg.apply_time(&small));
    }

    #[test]
    fn apply_time_is_seconds_not_minutes() {
        // Table I implies apply (synthesis minus upload) is ~1-2 s.
        let cfg = SynthesisConfig::default();
        let overlay = offloading_overlay("googlenet", 27 * MIB);
        let t = cfg.apply_time(&overlay).as_secs_f64();
        assert!((0.3..3.0).contains(&t), "got {t}");
    }

    #[test]
    fn raw_size_exceeds_compressed() {
        let overlay = offloading_overlay("m", 27 * MIB);
        assert!(overlay.raw_size() > overlay.compressed_size());
    }

    #[test]
    fn image_accounting() {
        let img = offloading_image("m", 5 * MIB);
        assert!(img.contains("/opt/webkit-browser"));
        assert!(img.total_size() > base_image().total_size());
    }
}
