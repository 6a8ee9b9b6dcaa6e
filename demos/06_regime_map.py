"""Map the accepted parameter region over the (mu, gamma) plane.

The real-spectrum regime requires rho > 0, gamma^2 > 2*alpha, mu^2 < 1, and
nonzero coupling; together these reduce to gamma^2 > 2*alpha*(1 + sqrt(1-mu^2)).
Inside the region l4 always sits below gamma, so the gain/loss power window
holds automatically in normalized units.
"""

import numpy as np

from pfcircuit import classify_asymptotics, derive, normalized, spectrum, validate

mus = np.linspace(0.05, 0.95, 19)
gammas = np.linspace(1.0, 6.0, 26)

print("accepted region ('#' accepted, '.' rejected); rows mu, columns gamma")
print("gamma:  " + " ".join(f"{g:4.1f}" for g in gammas[::5]))
for mu in mus:
    cells = []
    for gamma in gammas:
        report = validate(derive(normalized(float(mu), float(gamma))))
        cells.append("#" if report.accepted else ".")
    print(f"mu={mu:4.2f}  {''.join(cells)}")

print("\nwindow checks across the accepted region:")
inside = 0
l4_below_gamma = 0
for mu in mus:
    for gamma in gammas:
        derived = derive(normalized(float(mu), float(gamma)))
        report = validate(derived)
        if not report.accepted:
            continue
        inside += 1
        spec = spectrum(derived, report)
        gl = classify_asymptotics(spec, derived, normalized(float(mu), float(gamma)))
        if spec.l4 < derived.gamma and gl.power_window_ok and gl.energy_window_ok:
            l4_below_gamma += 1
print(f"accepted points: {inside}; all windows hold at {l4_below_gamma} of them")
