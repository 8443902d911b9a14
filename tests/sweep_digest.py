"""Print the SHA-256 digests of the default sweep's report bytes.

Run as ``PYTHONPATH=src python tests/sweep_digest.py`` (about 5 s on two
cores).  It describes every spec of ``SweepConfig()`` in sweep order and
hashes ``report_to_json(describe(spec))`` twice: as written, and with the
character sum's residual masked as ``test_report_cli._mask_residual`` does.
It prints one line each, ``<hex>  unmasked`` and ``<hex>  masked``, after
the spec count.  Only the masked digest is committed, in
``tests/sweep_full.sha256``, and ``tests/ci_steps.py`` compares
``digests()``'s with that file: the residual's last bits depend on the
NumPy build, so the unmasked bytes reproduce only on one machine.  After
an intended change to the report bytes, regenerate the file from the
masked line.

pytest does not collect this file (its name does not start with
``test_``); it takes too long for the tier-1 suite.
"""

import hashlib

from test_report_cli import _mask_residual

from u2sing.report import describe, report_to_json
from u2sing.sweep import SweepConfig, specs_in_sweep


def digests() -> tuple[int, str, str]:
    """(spec count, unmasked digest, masked digest) of the default sweep."""
    plain, masked, count = hashlib.sha256(), hashlib.sha256(), 0
    for spec in specs_in_sweep(SweepConfig()):
        text = report_to_json(describe(spec)).encode()
        plain.update(text)
        masked.update(_mask_residual(text))
        count += 1
    return count, plain.hexdigest(), masked.hexdigest()


if __name__ == "__main__":
    count, plain, masked = digests()
    print(f"{count} specs")
    print(f"{plain}  unmasked")
    print(f"{masked}  masked")
