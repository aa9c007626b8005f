//! The un-elided oracle shared by the elision differentials
//! (`kernel_equivalence`, `properties`, `prop_port`).

use rosebud::core::Rosebud;

/// Ends every lane's sleep — every host access wakes its lane, and
/// `rpu_mut` is the cheapest one. Called before each tick it turns
/// `Rosebud::tick` into the naive reference tick: every core ticked every
/// cycle. (`core::system`'s unit tests pin that `rpu_mut` really wakes.)
pub fn wake_all(sys: &mut Rosebud) {
    for r in 0..sys.config().num_rpus {
        sys.rpu_mut(r);
    }
}
