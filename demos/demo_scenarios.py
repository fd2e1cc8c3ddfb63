"""All worked scenarios end to end, printed as claim tables."""

from stabdyn.scenarios import (
    coh1_scenario,
    curve_scenario,
    ginzburg_scenario,
    pseudo_anosov_scenario,
    weak_stability_scenario,
)

reports = [
    curve_scenario(deg_L=3, m=1, n_max=2048, pol_n_max=2**16),
    curve_scenario(deg_L=0, m=0, n_max=1024, pol_n_max=4096),
    coh1_scenario(lam=1, m=0, n_max=1024),
    coh1_scenario(lam=2, m=1, n_max=2048),
    weak_stability_scenario(intersection_number=1.0, m=0, n_max=2**16),
    weak_stability_scenario(intersection_number=0.0, m=2, n_max=4096),
    ginzburg_scenario(phase1=0.3, phase2=0.6, d=3),
    ginzburg_scenario(phase1=0.1, phase2=0.9, d=5),
    pseudo_anosov_scenario(matrix=((2, 1), (1, 1)), n_max=64),
    pseudo_anosov_scenario(matrix=((1, 1), (1, 2)), n_max=64),
]

for rep in reports:
    print("\n".join(rep.text_lines()))
    print()
