"""Deterministic run fingerprints: the content address of one simulation cell.

A fingerprint is a stable hash over the **canonical JSON** of everything that
determines a run's record: the scenario spec (canonical family name + sorted
parameters + optional pinned seed), the canonical strategy name and its
effective parameters, the full simulator config, the replication seed, the
requested extra metrics, and the record labels (labels are copied verbatim
into the record, so two cells differing only in labels produce different
records and must hash differently).  A **code-version salt** (the library
version) is mixed in, so upgrading the library never serves records computed
by older code — stale entries simply stop hitting and can be swept by
``ResultStore.gc()``.

Canonicalisation mirrors what execution actually does:

* the strategy name is hashed **as spelled**: records carry the spec's raw
  strategy string verbatim (``record["strategy"] = spec.strategy``), so the
  alias ``"btctp"`` and its registry name ``"b-tctp"`` produce different
  records and must hash differently.  Scenario family aliases, by contrast,
  *do* resolve to their registry names — no record field carries the raw
  family spelling (labels, which may, are hashed too);
* strategies that declare a ``seed`` parameter receive the replication seed,
  exactly as :func:`repro.runner.campaign.execute_run` injects it — a bare
  hand-written spec and its campaign-expanded twin share a fingerprint;
* dictionaries are key-sorted and the JSON is emitted with a fixed format,
  so insertion order never leaks into the hash.

The fingerprint deliberately does **not** include execution-mode knobs that
are proven byte-invisible (worker count, geometry-cache switch, the
``sim.obs`` observability switch — see ``FINGERPRINT_EXEMPT``): records are
identical either way, so they must share an address.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.baselines.base import seeded_params

__all__ = [
    "canonical_run_payload",
    "memoised_run_payload",
    "canonical_run_json",
    "run_fingerprint",
    "code_salt",
    "FINGERPRINT_COVERAGE",
    "FINGERPRINT_EXEMPT",
]

# --------------------------------------------------------------------------- #
# Coverage declaration, checked statically by `repro-patrol check`
# --------------------------------------------------------------------------- #
# Every dataclass field of the spec types below MUST appear here (or in
# FINGERPRINT_EXEMPT with a reason): the fingerprint-coverage analyzer
# (repro.analysis.fingerprint_coverage) fails the build otherwise.  This is
# what makes schema growth safe for the content-addressed store — a field
# added to a spec without a decision about its hashing can never silently
# serve stale cache hits.
#
# Mechanisms:
#   "hashed"     — canonical_run_payload() reads the field directly (the
#                  analyzer also verifies that read exists in this module's
#                  AST);
#   "asdict"     — the whole dataclass is hashed via dataclasses.asdict();
#   "via-params" — the value round-trips inside an already-hashed mapping
#                  (pipeline stage specs travel in spec.params).
FINGERPRINT_COVERAGE: dict[str, dict[str, str]] = {
    "RunSpec": {
        "strategy": "hashed",
        "scenario": "hashed",
        "params": "hashed",
        "sim": "hashed",
        "seed": "hashed",
        "metrics": "hashed",
        "labels": "hashed",
    },
    "ScenarioSpec": {
        "family": "hashed",
        "params": "hashed",
        "seed": "hashed",
    },
    "SimulationConfig": {"*": "asdict"},
    "PipelineSpec": {"*": "via-params"},
}

#: ``(class name, field name) -> reason`` for fields deliberately excluded
#: from the fingerprint.  Exemptions are reserved for knobs *proven*
#: byte-invisible (records identical either way); the coverage analyzer
#: rejects a field that is both exempt and explicitly declared, and
#: :func:`canonical_run_payload` pops exempt SimulationConfig fields out of
#: the hashed payload so old and new specs keep their addresses.
FINGERPRINT_EXEMPT: dict[tuple[str, str], str] = {
    ("SimulationConfig", "obs"): (
        "observability switch: recording is proven byte-invisible (the obs "
        "differential tests assert records and fingerprints are identical "
        "with the registry on or off), so obs-on and obs-off runs must "
        "share a content address"
    ),
}

#: Exempt SimulationConfig field names (what the payload builder strips).
_SIM_EXEMPT_FIELDS = frozenset(
    field for cls, field in FINGERPRINT_EXEMPT if cls == "SimulationConfig"
)


def code_salt() -> str:
    """The code-version salt mixed into every fingerprint (the library version)."""
    from repro import __version__  # lazy: repro/__init__ imports the runner stack

    return f"repro-patrol/{__version__}"


#: Types :func:`_jsonable` returns as they are (exact types: a numpy scalar
#: subclassing ``float`` still goes through its ``item()``).
_PLAIN_TYPES = frozenset({str, int, float, bool, type(None)})


def _jsonable(value: Any) -> Any:
    """Canonical JSON-safe twin of a spec value (tuples become lists)."""
    if type(value) in _PLAIN_TYPES:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()  # numpy scalars hash as their Python twins
        except (AttributeError, ValueError):  # pragma: no cover - exotic .item()
            return repr(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def canonical_run_payload(spec) -> dict:
    """The canonical, JSON-safe description of one run cell.

    Parameters
    ----------
    spec : repro.runner.RunSpec
        The cell to canonicalise (duck-typed to avoid an import cycle).

    Returns
    -------
    dict
        ``{strategy, scenario, params, sim, seed, metrics, labels}`` with
        the family registry name resolved (the strategy keeps its raw
        spelling — records carry it verbatim), the seed injected for
        seed-declaring strategies, and every mapping key-sorted by the JSON
        emitter.
    """
    params = seeded_params(spec.strategy, spec.params, spec.seed)
    scenario = spec.scenario
    scenario_payload: dict[str, Any] = {
        "family": scenario.canonical_family(),
        "params": _jsonable(dict(scenario.params)),
    }
    if scenario.seed is not None:
        scenario_payload["seed"] = scenario.seed
    sim_payload = dataclasses.asdict(spec.sim)
    for field in _SIM_EXEMPT_FIELDS:  # proven byte-invisible; see FINGERPRINT_EXEMPT
        sim_payload.pop(field, None)
    return {
        "strategy": str(spec.strategy),
        "scenario": scenario_payload,
        "params": _jsonable(params),
        "sim": _jsonable(sim_payload),
        "seed": spec.seed,
        "metrics": [_jsonable(list(m) if isinstance(m, tuple) else m) for m in spec.metrics],
        "labels": _jsonable(dict(spec.labels)),
    }


#: The attribute a spec object carries its memoised canonical payload in.
_PAYLOAD_MEMO = "_canonical_run_payload"


def memoised_run_payload(spec) -> dict:
    """:func:`canonical_run_payload` of ``spec``, computed once per spec object.

    A cell is fingerprinted at admission and stored after execution; both
    read this payload, so it is kept in the spec's ``__dict__`` (a frozen
    :class:`~repro.runner.RunSpec` is never changed after construction, and
    one made by :func:`dataclasses.replace` is a new object with no memo).
    Treat the returned dict as read-only.
    """
    state = getattr(spec, "__dict__", None)
    if state is None:  # a slotted stand-in: nowhere to keep it
        return canonical_run_payload(spec)
    payload = state.get(_PAYLOAD_MEMO)
    if payload is None:
        payload = state[_PAYLOAD_MEMO] = canonical_run_payload(spec)
    return payload


# ``json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)``,
# without building an encoder per call.
_encode_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=True
).encode


def canonical_run_json(spec) -> str:
    """The canonical JSON text the fingerprint hashes (key-sorted, compact)."""
    return _encode_canonical(memoised_run_payload(spec))


def run_fingerprint(spec, *, salt: "str | None" = None) -> str:
    """Content address of ``spec``: blake2b over its canonical JSON + salt.

    Two specs share a fingerprint exactly when execution would produce
    byte-identical records; ``salt`` defaults to :func:`code_salt` so records
    never survive a library version change unnoticed.

    >>> from repro.runner import RunSpec
    >>> a = run_fingerprint(RunSpec(strategy="b-tctp", seed=1))
    >>> b = run_fingerprint(RunSpec(strategy="b-tctp", seed=2))  # different seed
    >>> c = run_fingerprint(RunSpec(strategy="btctp", seed=1))   # alias spelling:
    >>> a == b, a == c       # different records (record["strategy"] differs)
    (False, False)
    """
    digest = hashlib.blake2b(digest_size=20)
    digest.update(canonical_run_json(spec).encode())
    digest.update(b"\x1f")
    digest.update((salt if salt is not None else code_salt()).encode())
    return digest.hexdigest()
