"""The one configuration schema: every setting of a run, checked once.

The README's Configuration section gives the rules key by key.
"""

import math
import numbers
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError

# model widths and epoch budgets; "paper" is the full-scale default,
# "desk" is sized for laptops, tests and synthetic studies
PROFILES = {
    "paper": {"hidden": (500, 500, 2000), "latent_dim": 512, "head_dim": 128,
              "pretrain_epochs": 200, "epochs": 200},
    "desk": {"hidden": (64, 64), "latent_dim": 32, "head_dim": 16,
             "pretrain_epochs": 50, "epochs": 100},
}
SETTINGS = ("clean", "incomplete", "noise", "combined")
ABLATIONS = ("rec", "rec+ggc", "full")


def _rule(kind, what, ok=lambda value: True, coerce=lambda value: value):
    """Check a value's type (bool is no number), then ``ok``; coerce it."""
    def rule(name, value):
        if (isinstance(value, bool) != (kind is bool)
                or not isinstance(value, kind) or not ok(value)):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return coerce(value)
    return rule


def _number(what, ok):
    return _rule(numbers.Real, what, ok, float)


def _count(low):
    return _rule(numbers.Integral, f"an integer >= {low}",
                 lambda v: v >= low, int)


def _one_of(choices):
    return _rule(str, f"one of {list(choices)}", lambda v: v in choices)


def _optional(rule):
    return lambda name, value: None if value is None else rule(name, value)


def _list_of(rule, kind=list):
    def check(name, value):
        _rule((list, tuple), "a list")(name, value)
        return kind(rule(f"{name}[{i}]", v) for i, v in enumerate(value))
    return check


_TEXT = _rule(str, "a string")
_FLAG = _rule(bool, "true or false")
_INTEGER = _rule(numbers.Integral, "an integer", coerce=int)
_NON_NEGATIVE = _number("a finite number >= 0", lambda v: 0 <= v < math.inf)
_POSITIVE = _number("a finite number > 0", lambda v: 0 < v < math.inf)
_FRACTION = _number("a number in [0, 1]", lambda v: 0 <= v <= 1)
_PERCENT = _number("a number in (0, 100]", lambda v: 0 < v <= 100)


# keyword arguments of glc.data.make_synthetic
_SYNTHETIC = {"n_samples": _count(1), "n_views": _count(1),
              "n_classes": _count(2), "dims": _list_of(_count(1)),
              "separation": _NON_NEGATIVE, "view_noise": _POSITIVE,
              "seed": _count(0), "standardize": _FLAG}


def _synthetic(name, value):
    _rule(dict, f"an object with keys from {sorted(_SYNTHETIC)}",
          lambda v: set(v) <= set(_SYNTHETIC))(name, value)
    return {k: _SYNTHETIC[k](f"{name}.{k}", v) for k, v in value.items()}


def parse_synthetic_spec(text):
    """Parse ``synthetic:n=300,v=3,k=3,dims=12|10|8,sep=2.0,noise=1.0``.

    ``dims`` gives one width per view, or one width for every view.  The
    result is checked by the same rules as the ``synthetic`` object.
    """
    body = text.split(":", 1)[1] if ":" in text else ""
    spec = {}
    for item in filter(None, body.split(",")):
        if "=" not in item:
            raise ConfigError(f"bad synthetic spec item {item!r}")
        key, value = item.split("=", 1)
        spec[key.strip()] = value.strip()
    out = {}
    try:
        out["n_samples"] = int(spec.pop("n", 300))
        out["n_views"] = int(spec.pop("v", 2))
        out["n_classes"] = int(spec.pop("k", 3))
        if "dims" in spec:
            dims = [int(d) for d in spec.pop("dims").split("|")]
            out["dims"] = dims * out["n_views"] if len(dims) == 1 else dims
        out["separation"] = float(spec.pop("sep", 5.0))
        if "noise" in spec:
            out["view_noise"] = float(spec.pop("noise"))
        if "seed" in spec:
            out["seed"] = int(spec.pop("seed"))
    except ValueError as err:
        raise ConfigError(f"bad synthetic spec: {err}") from err
    if spec:
        raise ConfigError(f"unknown synthetic spec keys: {sorted(spec)}")
    return _synthetic("dataset", out)


def _key(default, rule):
    return field(default=default, metadata={"rule": rule})


@dataclass
class Config:
    """Every setting of a run or a grid of runs; field names are the JSON keys.

    Construction (also by ``from_dict`` and ``dataclasses.replace``)
    coerces and checks every value and raises ConfigError on the first bad
    one; :meth:`resolved` fills the fields left at ``None``.
    """

    dataset: str | None = _key(None, _optional(_TEXT))
    setting: str | None = _key(None, _optional(_one_of(SETTINGS)))
    rate: float = _key(0.0, _FRACTION)
    rates: list | None = _key(None, _optional(_list_of(_FRACTION)))
    settings: list | None = _key(None, _optional(_list_of(_one_of(SETTINGS))))
    noise_std: float = _key(0.4, _POSITIVE)
    alpha: float = _key(0.1, _NON_NEGATIVE)
    beta: float = _key(1.0, _NON_NEGATIVE)
    tau: float = _key(0.5, _POSITIVE)
    pos: float = _key(1.0, _PERCENT)
    neg: float = _key(50.0, _PERCENT)
    lr: float = _key(1e-3, _POSITIVE)
    batch: int = _key(256, _count(2))
    profile: str = _key("paper", _one_of(tuple(PROFILES)))
    hidden: tuple | None = _key(None, _optional(_list_of(_count(1), tuple)))
    latent_dim: int | None = _key(None, _optional(_count(1)))
    head_dim: int | None = _key(None, _optional(_count(1)))
    pretrain_epochs: int | None = _key(None, _optional(_count(0)))
    epochs: int | None = _key(None, _optional(_count(1)))
    seed: int = _key(0, _INTEGER)
    out: str = _key("runs/out", _TEXT)
    ablation: str = _key("full", _one_of(ABLATIONS))
    ablations: list | None = _key(None, _optional(_list_of(_one_of(ABLATIONS))))
    include_positive_in_denominator: bool = _key(False, _FLAG)
    eval_every: int = _key(0, _count(0))      # 0: no mid-training checkpoints
    kmeans_restarts: int = _key(10, _count(1))
    eval_seeds: int = _key(5, _count(1))
    fuse_space: str = _key("contrast", _one_of(("contrast", "latent")))
    eval_protocol: str = _key("kmeans", _one_of(("kmeans", "retrain")))
    synthetic: dict | None = _key(None, _optional(_synthetic))

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            setattr(self, f.name, f.metadata["rule"](f.name, value))
        if self.pos + self.neg > 100.0:
            raise ConfigError("pos + neg must be at most 100")
        if self.dataset is not None and self.dataset.startswith("synthetic:"):
            parse_synthetic_spec(self.dataset)

    @classmethod
    def from_dict(cls, values):
        """A Config from a mapping of keys; unknown keys are an error."""
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)

    def resolved(self):
        """A copy with each field left at ``None`` filled: a profile field
        with the profile's value, ``setting`` with ``clean``."""
        profile = {**PROFILES[self.profile], "setting": "clean"}
        return replace(self, **{k: v for k, v in profile.items()
                                if getattr(self, k) is None})
