//! WebGL surface generation.
//!
//! Table 2 counts thousands of "deviating WebGL properties" between run
//! modes: headless Firefox has no WebGL implementation at all (≈2,000
//! missing properties), Xvfb swaps in a Mesa/llvmpipe software renderer
//! (18 changed values) and Docker a VMware-flagged llvmpipe (27 changed
//! values — "clear evidence for the use of virtualisation", Sec. 3.1.3).
//!
//! The property *names* are deterministic synthetic stand-ins for the real
//! `WebGLRenderingContext` constant and method names; what matters for the
//! reproduction is the diff arithmetic and the vendor/renderer strings,
//! which are verbatim from Table 4.
//!
//! A page sees the surface as the own properties of a fresh
//! `WebGLRenderingContext` prototype per `getContext('webgl')` call. Those
//! ~2,000 properties are built into a [`PropMap`] once per profile
//! ([`WebGlProfile::surface`]) and cloned per context, so a call copies
//! the map instead of allocating and interning every name and value again.

use std::sync::{Arc, OnceLock};

use jsengine::{PropMap, Property, Value};

use crate::profile::Os;

/// A realised WebGL surface.
#[derive(Clone)]
pub struct WebGlProfile {
    /// `UNMASKED_VENDOR_WEBGL`.
    pub vendor: String,
    /// `UNMASKED_RENDERER_WEBGL`.
    pub renderer: String,
    /// Full property surface `(name, value)` as seen by DOM traversal.
    /// Private, so it cannot drift from `surface` once that is built.
    props: Vec<(String, String)>,
    /// `props` as enumerable data properties, built on first use.
    surface: OnceLock<PropMap>,
}

impl std::fmt::Debug for WebGlProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebGlProfile")
            .field("vendor", &self.vendor)
            .field("renderer", &self.renderer)
            .field("props", &self.props)
            .finish_non_exhaustive()
    }
}

/// Number of WebGL properties common to every hardware-accelerated Firefox.
const COMMON_PROPS: usize = 1990;

/// Platform extras on top of the common surface: macOS exposes 2,037 props
/// total, Ubuntu 2,061 (the Table 2 headless "missing" counts).
fn platform_extra(os: Os) -> usize {
    match os {
        Os::MacOs1015 => 2037 - COMMON_PROPS,
        Os::Ubuntu1804 => 2061 - COMMON_PROPS,
    }
}

/// How many property values the software renderer changes relative to the
/// native renderer (Table 2: Xvfb 18, Docker 27).
const XVFB_CHANGED: usize = 18;
const DOCKER_CHANGED: usize = 27;

fn base_props(os: Os, vendor: &str, renderer: &str, changed: usize) -> Vec<(String, String)> {
    let total = COMMON_PROPS + platform_extra(os);
    let mut props = Vec::with_capacity(total + 2);
    props.push(("UNMASKED_VENDOR_WEBGL".to_owned(), vendor.to_owned()));
    props.push(("UNMASKED_RENDERER_WEBGL".to_owned(), renderer.to_owned()));
    for i in 0..total - 2 {
        // The first `changed - 2` generic properties take renderer-specific
        // values (driver limits, precision formats, …); the rest are
        // identical across renderers.
        let value = if i < changed.saturating_sub(2) {
            format!("{renderer}:{i}")
        } else {
            format!("webgl-const-{i}")
        };
        props.push((format!("WEBGL_PROP_{i:04}"), value));
    }
    props
}

impl WebGlProfile {
    /// Hardware renderer of a desktop install (regular mode / stock
    /// Firefox). Vendor strings per Table 4 row "RM".
    pub fn native(os: Os) -> WebGlProfile {
        let (vendor, renderer) = match os {
            Os::Ubuntu1804 => ("AMD", "AMD TAHITI"),
            Os::MacOs1015 => ("Apple", "Apple M-series"),
        };
        WebGlProfile::new(vendor, renderer, base_props(os, vendor, renderer, 0))
    }

    /// Xvfb: Mesa/X.org software rasteriser (Table 4 row "Xvfb").
    pub fn llvmpipe_mesa(os: Os) -> WebGlProfile {
        let vendor = "Mesa/X.org";
        let renderer = "llvmpipe (LLVM 12.0.0, 256 bits)";
        WebGlProfile::new(vendor, renderer, base_props(os, vendor, renderer, XVFB_CHANGED))
    }

    /// Docker: VMware-flagged llvmpipe (Table 4 row "Docker").
    pub fn llvmpipe_vmware() -> WebGlProfile {
        let vendor = "VMware, Inc.";
        let renderer = "llvmpipe (LLVM 10.0.0, 256 bits)";
        let props = base_props(Os::Ubuntu1804, vendor, renderer, DOCKER_CHANGED);
        WebGlProfile::new(vendor, renderer, props)
    }

    /// A Chromium-family surface for detector validation: overlapping
    /// generic properties (roughly 200 of the 4K union, per Sec. 3.3) but a
    /// different vendor and a disjoint remainder.
    pub fn chrome(os: Os) -> WebGlProfile {
        let vendor = "Google Inc. (NVIDIA)";
        let renderer = "ANGLE (NVIDIA GeForce)";
        let mut props = Vec::new();
        props.push(("UNMASKED_VENDOR_WEBGL".to_owned(), vendor.to_owned()));
        props.push(("UNMASKED_RENDERER_WEBGL".to_owned(), renderer.to_owned()));
        let total = COMMON_PROPS + platform_extra(os);
        for i in 0..total - 2 {
            if i % 10 == 0 {
                // ~10% overlap with the Firefox surface names/values.
                props.push((format!("WEBGL_PROP_{i:04}"), format!("webgl-const-{i}")));
            } else {
                props.push((format!("ANGLE_PROP_{i:04}"), format!("angle-const-{i}")));
            }
        }
        WebGlProfile::new(vendor, renderer, props)
    }

    fn new(vendor: &str, renderer: &str, props: Vec<(String, String)>) -> WebGlProfile {
        WebGlProfile {
            vendor: vendor.to_owned(),
            renderer: renderer.to_owned(),
            props,
            surface: OnceLock::new(),
        }
    }

    /// The full property surface `(name, value)`, in DOM-traversal order.
    pub fn props(&self) -> &[(String, String)] {
        &self.props
    }

    pub fn prop_count(&self) -> usize {
        self.props.len()
    }

    /// The surface as a context prototype's own properties: one enumerable
    /// data property per `props` entry, in order. Built on the first call
    /// and shared by every later one; a clone of the profile copies it.
    pub fn surface(&self) -> &PropMap {
        self.surface.get_or_init(|| {
            let mut map = PropMap::new();
            for (name, value) in &self.props {
                map.insert(Arc::from(name.as_str()), Property::data(Value::str(value)));
            }
            map
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_sizes_match_table2() {
        assert_eq!(WebGlProfile::native(Os::MacOs1015).prop_count(), 2037);
        assert_eq!(WebGlProfile::native(Os::Ubuntu1804).prop_count(), 2061);
    }

    #[test]
    fn surface_is_built_on_first_use_in_profile_order() {
        let p = WebGlProfile::native(Os::Ubuntu1804);
        assert!(p.surface.get().is_none(), "no page asked for WebGL yet");
        let keys: Vec<&str> = p.surface().keys().map(|k| &**k).collect();
        let names: Vec<&str> = p.props.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, names);
        assert!(std::ptr::eq(p.surface(), p.surface()));
        assert!(p.surface().iter().all(|(_, prop)| prop.enumerable && prop.writable));
    }

    #[test]
    fn xvfb_changes_exactly_18_values() {
        let native = WebGlProfile::native(Os::Ubuntu1804);
        let xvfb = WebGlProfile::llvmpipe_mesa(Os::Ubuntu1804);
        assert_eq!(native.prop_count(), xvfb.prop_count());
        let changed = native
            .props
            .iter()
            .zip(&xvfb.props)
            .filter(|(a, b)| a.1 != b.1)
            .count();
        assert_eq!(changed, 18);
    }

    #[test]
    fn docker_changes_exactly_27_values_and_flags_vmware() {
        let native = WebGlProfile::native(Os::Ubuntu1804);
        let docker = WebGlProfile::llvmpipe_vmware();
        let changed = native
            .props
            .iter()
            .zip(&docker.props)
            .filter(|(a, b)| a.1 != b.1)
            .count();
        assert_eq!(changed, 27);
        assert!(docker.vendor.contains("VMware"));
    }

    #[test]
    fn chrome_surface_mostly_disjoint() {
        let ff = WebGlProfile::native(Os::Ubuntu1804);
        let cr = WebGlProfile::chrome(Os::Ubuntu1804);
        let ff_names: std::collections::HashSet<&str> =
            ff.props.iter().map(|(k, _)| k.as_str()).collect();
        let overlap = cr.props.iter().filter(|(k, _)| ff_names.contains(k.as_str())).count();
        // Roughly 200 of the union overlaps (Sec. 3.3's ~200-of-4K figure).
        assert!(overlap > 150 && overlap < 260, "overlap = {overlap}");
    }
}
