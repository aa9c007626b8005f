//! The un-elided oracle shared by the elision differentials
//! (`kernel_equivalence`, `properties`, `prop_port`).

use rosebud::core::Rosebud;

/// Ends every lane's sleep — every host access wakes its lane, and
/// `rpu_mut` is the cheapest one. Waking a lane marks it in all five of the
/// tick's occupancy words, so called before each tick this turns
/// `Rosebud::tick` into the naive reference tick: every core ticked every
/// cycle, and stages 4, 6, 7 and 10 sweeping every lane's link, send queue
/// and DMA register whether or not anything is there. (`core::system`'s unit
/// tests pin both: `rpu_mut` really wakes, and waking every lane fills
/// every word.)
pub fn wake_all(sys: &mut Rosebud) {
    for r in 0..sys.config().num_rpus {
        sys.rpu_mut(r);
    }
}
