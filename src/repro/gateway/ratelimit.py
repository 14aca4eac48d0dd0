"""Per-tenant token-bucket rate limiting for gateway admission.

Each tenant owns an independent :class:`TokenBucket`; a request costs
one token and a ``/v1/batch`` call one per item, spent **all or
nothing** in a single acquire.  Buckets refill continuously at
``rate_per_second`` up to ``burst`` tokens, so short bursts ride through
and sustained overload is shaped to the configured rate.  When a bucket
holds too little the limiter takes nothing and returns the exact number
of seconds until the whole call fits — the ``Retry-After`` value of the
resulting 429 — and, critically, only the offending tenant is limited:
the buckets share nothing, which is the isolation property
``tests/test_gateway_lifecycle.py`` pins.  A call that asks for more
than ``burst`` tokens can never fit and is refused every time.

Time comes from the gateway's shared clock (the latched
:class:`~repro.online.clock.WallClock`), so the limiter is deterministic
under a virtual clock in tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RateLimitConfig:
    """Shaping knobs applied to every tenant's bucket."""

    #: sustained admission rate per tenant (tokens per second)
    rate_per_second: float = 200.0
    #: bucket capacity: how far a tenant may burst above the rate
    burst: int = 50

    def __post_init__(self):
        """Both knobs must be positive for the bucket math to make sense."""
        if self.rate_per_second <= 0:
            raise ValueError("rate_per_second must be > 0")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")


class TokenBucket:
    """One tenant's bucket: continuous refill, all-or-nothing acquires."""

    __slots__ = ("rate", "capacity", "_tokens", "_updated_at")

    def __init__(self, rate: float, capacity: int, now: float):
        """Starts full — a fresh tenant gets its whole burst allowance."""
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._tokens = float(capacity)
        self._updated_at = now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated_at)
        self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
        self._updated_at = now

    def try_acquire(self, now: float, tokens: int = 1) -> float:
        """Spend ``tokens`` or nothing; 0.0 on success, else seconds until retry.

        The returned delay is exact for a lone caller: after waiting that
        long the bucket holds at least ``tokens`` again (unless ``tokens``
        exceeds the capacity, which no wait can satisfy).
        """
        self._refill(now)
        if self._tokens >= tokens:
            self._tokens -= tokens
            return 0.0
        return (tokens - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        """Tokens in the bucket as of the last acquire/refill."""
        return self._tokens


class RateLimiter:
    """Per-tenant bucket map in front of scheduler admission."""

    def __init__(self, config: RateLimitConfig, clock):
        """``clock`` is any object with ``now() -> float`` (the shared
        gateway clock); buckets are created lazily per tenant."""
        self.config = config
        self.clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        #: 429s handed out, per tenant (telemetry for /v1/stats)
        self.limited: dict[str, int] = {}

    def check(self, tenant: str, tokens: int = 1) -> float:
        """Admit one call of ``tokens`` requests for ``tenant`` as a whole:
        0.0, or (nothing spent, one ``limited`` tick) a Retry-After delay."""
        now = self.clock.now()
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self.config.rate_per_second, self.config.burst, now
            )
            self._buckets[tenant] = bucket
        retry_after = bucket.try_acquire(now, tokens)
        if retry_after > 0.0:
            self.limited[tenant] = self.limited.get(tenant, 0) + 1
        return retry_after
