"""Seeded synthetic HMD Mx 1x1 text: a declining log-mortality surface per gender.

Same model and call surface as the test suite's `hmd_text` fixture helper:
log female rates rise with age, improve linearly in time with a random
per-age loading, and carry small Gaussian noise; males sit 0.25 above.
The draws are taken in the same order, so one seed gives the same text.
"""

import numpy as np

HEADER = [
    "Synthetic, Death rates (period 1x1)",
    "",
    "  Year          Age             Female            Male           Total",
]


def hmd_text(years=(1950, 2005), ages=(0, 15), seed=0) -> str:
    rng = np.random.default_rng(seed)
    y_lo, y_hi = years
    a_lo, a_hi = ages
    age_axis = np.arange(a_lo, a_hi + 1)
    year_axis = np.arange(y_lo, y_hi + 1)
    base = -6.0 + 4.0 * (age_axis / max(a_hi, 1)) ** 2
    slope = 0.4 + 0.6 * rng.uniform(size=len(age_axis))
    trend = -0.022 * (year_axis - y_lo)
    noise = rng.standard_normal((len(year_axis), len(age_axis), 2))
    log_f = base[None, :] + slope[None, :] * trend[:, None] + 0.02 * noise[:, :, 0]
    log_m = log_f + 0.25 + 0.05 * noise[:, :, 1]
    female, male = np.exp(log_f), np.exp(log_m)
    lines = list(HEADER)
    for t, year in enumerate(year_axis):
        for i, age in enumerate(age_axis):
            f, m = float(female[t, i]), float(male[t, i])
            token = f"{age}+" if age == 110 else str(age)
            lines.append(f"  {year}    {token:>4}    {f:.6f}    {m:.6f}    {0.5 * (f + m):.6f}")
    return "\n".join(lines) + "\n"
