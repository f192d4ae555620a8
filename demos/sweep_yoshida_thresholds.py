"""
Locating integrability thresholds by sweeping a family
======================================================

For the quartic two-parameter family V_g(theta; epsilon) the certificate
applies exactly when epsilon < -1/8 or epsilon > 25/7.  Instead of trusting
those numbers, this demo rediscovers them: sample the family on a grid,
watch the certifier's conclusion change, and sharpen each change point by
Brent's method on the certificate's decision margin, whose sign is the
conclusion.
"""
from mcgehee import CertifyOptions, certify, compile_potential, spec_from_dict
from mcgehee.certify import sweep_threshold


def spec(name, **params):
    return spec_from_dict({"builtin": name, "params": params})


# ---------------------------------------------------------------------------
# 1. Sweep the window around the lower threshold.

res = sweep_threshold(spec("yoshida_g", epsilon=0.0), "epsilon", -0.9, 0.9, grid_m=80)
print("epsilon in [-0.9, 0.9]:")
print(f"  thresholds found: {[f'{t:.9f}' for t in res.thresholds]}")
print(f"  bracket width:    {res.threshold_widths[0]:.1e}")
print(f"  exact value:      {-1/8} (deviation {abs(res.thresholds[0] + 1/8):.2e})")

# ---------------------------------------------------------------------------
# 2. And the window around the upper one.

res = sweep_threshold(spec("yoshida_g", epsilon=2.0), "epsilon", 1.1, 10.0, grid_m=80)
print("epsilon in [1.1, 10]:")
print(f"  thresholds found: {[f'{t:.9f}' for t in res.thresholds]}")
print(f"  exact value:      25/7 = {25/7:.9f} "
      f"(deviation {abs(res.thresholds[0] - 25/7):.2e})")

# ---------------------------------------------------------------------------
# 3. The sign-flipped companion family.
#
# V_h = -V_g is positive where V_g is negative, so none of the direct
# assumptions can hold -- but U and -U share every meromorphic first
# integral, so certifying -V_h = V_g settles V_h as well.  The certifier
# does that flip when asked, and marks the certificate "complexified"
# because the flip corresponds to rotating the complexified plane rather
# than a real change of coordinates.

pot = compile_potential(spec("yoshida_h", epsilon=5.0))
direct = certify(pot)
flipped = certify(pot, CertifyOptions(allow_sign_flip=True))
print("yoshida_h at epsilon = 5:")
print(f"  without the flip: {direct.conclusion}")
print(f"  with the flip:    {flipped.conclusion} (kind = {flipped.kind}, "
      f"complex analyticity asserted = {flipped.complex_analyticity_asserted})")

res = sweep_threshold(
    spec("yoshida_h", epsilon=2.0), "epsilon", 1.1, 10.0, grid_m=80,
    opts=CertifyOptions(allow_sign_flip=True),
)
print(f"  sweeping yoshida_h with the flip finds the same threshold: "
      f"{res.thresholds[0]:.9f}")
