"""In-memory control-plane ledger: assets, marketplace, atomic blocks.

A single serial state machine stands in for the blockchain.  Bandwidth
assets are issued by registered ASes, traded through escrowed listings,
and redeemed in ingress/egress pairs; redemption destroys the assets
and leaves a request that the issuing AS answers with sealed data-plane
credentials (ReservationInfo plus the reservation key).

Everything that touches ledger state goes through one of the public
operations.  Each mutating call either completes or raises with no
state change; execute_atomic extends that guarantee to a whole list of
calls by running them against a staged copy and swapping it in only on
success.  Credential delivery is deliberately not available inside
atomic blocks: it has side effects outside the ledger (the AS's ResID
allocator) that cannot be rolled back.

The staged copy copies the state's containers, not their values.  That
is enough because every stored value is a frozen dataclass, an enum,
an int, a str or bytes, and every operation replaces dict entries
instead of changing a stored value, so the committed state never sees
a staged change.

The same immutability keeps state_hash cheap.  Each asset, listing,
redeem request and token renders its own entry of the canonical state
JSON once and caches it on itself (`_fragment`).  The entry is rendered
from the value's dataclass fields by a per-class format string and
per-type encoders that write what json.dumps would.  A stored value
holds only ints, strings, bytes, a bool and a Direction; the ledger
refuses anything else where it enters.  The cache is exact because a
value never changes after it is built: a changed entry is a field copy
(`_with`) that renders its own fragment.

Each table (`_Table`) keeps those entries sorted between hashes and
moves only the entries of ids written since the last one.  Sorting the
entries is `sort_keys` order: an entry starts with its id as a quoted
decimal string, and `"` sorts before every digit, so "10" < "100" < "9"
holds for the entries as for the keys.  state_hash resumes the same
digest rather than recomputing it: sha256 reads its input in order, so
everything before the first changed byte leaves the same hash state.
Each table keeps copies of that state every few entries from its last
hash, and the next hash starts again at the last copy before the
table's first moved entry; the balances and sellers are dumped again
only when they changed.  A staged copy copies each table's order and
pending writes with its values and shares the kept states, which are
never changed in place.  So a block's writes never reach the committed
order, and a rollback puts back a state whose order and kept states
still match its values.

Currency is an abstract integer.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from random import Random

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import crypto
from .residalloc import ResIdAllocator
from .wire import (
    MAX_BW_VALUE, ReservationInfo, frozen_record, parse_resinfo_block, quantize_bw, resinfo_block,
)

MARKET_ACCOUNT = "__market__"
_REG_CONTEXT = b"hummingbird-as-registration:"
_CERT_CONTEXT = b"hummingbird-as-cert:"
_SEAL_CONTEXT = b"hummingbird-credential-seal"


class LedgerError(ValueError):
    pass


@cache
def _low_order_probe() -> X25519PrivateKey:
    """The one key redeem exchanges with to find low-order peer keys.

    The all-zero key is public by design: the shared secret is never
    used.  It is built on first use, not at import, because creating an
    X25519 key costs the process about 1 MB that a run which never
    redeems would otherwise carry.
    """
    return X25519PrivateKey.from_private_bytes(bytes(32))


def _dumps(value) -> str:
    """Canonical JSON, as state_hash writes it."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class Direction(Enum):
    INGRESS = "ingress"
    EGRESS = "egress"


# each type a stored value holds but int -> a function giving the JSON of
# a value of exactly that type (`_Stored._fragment` writes an int as it is)
_ENCODERS = {
    bool: {False: "false", True: "true"}.__getitem__,
    str: encode_basestring_ascii,
    bytes: lambda value: f'"{value.hex()}"',
    Direction: {member: encode_basestring_ascii(member.value) for member in Direction}.__getitem__,
}


# ---------------------------------------------------------------------------
# Domain objects


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


@cache
def _entry_layout(cls) -> tuple[attrgetter, str]:
    """A getter of cls's fields, key first and the rest by name, and the
    %-format of its state_hash entry, `"<key>":{"<name>":<value>,...}`."""
    key, *rest = _field_names(cls)
    names = sorted(rest)
    body = ",".join(encode_basestring_ascii(name) + ":%s" for name in names)
    return attrgetter(key, *names), '"%s":{' + body + "}"


class _Rendered(cached_property):
    """A `cached_property` whose first read takes no lock (3.11's takes one):
    the value goes into the instance `__dict__`, where later reads find it."""

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


class _Stored:
    """A frozen dataclass kept in a ledger table under its first field."""

    @_Rendered
    def _fragment(self) -> str:
        """This value's `"<key>":{...}` entry in the state_hash JSON, which
        holds every other field."""
        getter, layout = _entry_layout(type(self))
        key, *values = getter(self)
        # An int's %s is already its JSON.
        return layout % (key, *[v if type(v) is int else _ENCODERS[type(v)](v) for v in values])

    def _with(self, **changes):
        """A copy with changes, its fields copied once; it renders its own entry."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, **changes)
        copy.__dict__.pop("_fragment", None)
        return copy


@frozen_record
class BandwidthAsset(_Stored):
    asset_id: int
    as_id: int
    bandwidth: int  # bits per second
    start_time: int  # unix seconds
    expiration_time: int
    interface: int  # 16-bit interface id
    direction: Direction
    time_granularity: int  # seconds
    min_bandwidth: int  # bits per second
    owner: str

    def validate(self) -> None:
        if {*map(type, _ASSET_INTS(self))} != {int}:  # a bool or a float is not an int
            raise LedgerError(f"asset fields must be ints, got {self}")
        if self.time_granularity <= 0 or self.min_bandwidth <= 0:
            raise LedgerError("granularity and minimum bandwidth must be positive")
        if not 0 <= self.start_time < self.expiration_time:
            raise LedgerError(
                f"start {self.start_time} must precede expiration {self.expiration_time}"
            )
        if (self.expiration_time - self.start_time) % self.time_granularity:
            raise LedgerError(
                f"duration {self.expiration_time - self.start_time} not a multiple "
                f"of granularity {self.time_granularity}"
            )
        if self.bandwidth < self.min_bandwidth:
            raise LedgerError(f"bandwidth {self.bandwidth} below minimum {self.min_bandwidth}")
        if not 0 <= self.interface < (1 << 16):
            raise LedgerError(f"interface out of range: {self.interface}")

    @property
    def duration(self) -> int:
        return self.expiration_time - self.start_time

    @property
    def area(self) -> int:
        """Bandwidth-time product, the conserved quantity under split/fuse."""
        return self.bandwidth * self.duration


_ASSET_INTS = attrgetter(*(f.name for f in fields(BandwidthAsset) if f.type == "int"))


@frozen_record
class AuthToken(_Stored):
    token_id: int
    as_id: int
    account: str


@frozen_record
class Listing(_Stored):
    listing_id: int
    asset_id: int
    unit_price: int  # currency per (bit/s x second)
    seller: str


@frozen_record
class RedeemRequest(_Stored):
    """Snapshot of a destroyed asset pair, awaiting credential delivery."""

    request_id: int
    as_id: int
    owner: str
    ingress_interface: int
    egress_interface: int
    bandwidth: int
    start_time: int
    expiration_time: int
    ephemeral_pubkey: bytes
    delivered: bool = False
    credentials: bytes = b""


@dataclass
class Call:
    """One operation inside a transaction block."""

    op: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Result:
    """Reference to an earlier call's result within the same block."""

    index: int
    item: int | None = None


# ---------------------------------------------------------------------------
# PKI stub: one self-signed root certifying AS keys


@dataclass(frozen=True)
class AsCert:
    as_id: int
    public_key: bytes  # raw Ed25519
    signature: bytes  # by the root, over (_CERT_CONTEXT | as_id | public_key)


def _cert_message(as_id: int, public_key: bytes) -> bytes:
    return _CERT_CONTEXT + as_id.to_bytes(8, "big") + public_key


def _proof_message(as_id: int, account: str) -> bytes:
    return _REG_CONTEXT + as_id.to_bytes(8, "big") + account.encode()


class PkiRoot:
    """Certificate authority for the simulation; keys come from the rng."""

    def __init__(self, rng: Random):
        self._key = Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
        self.public_key = self._key.public_key().public_bytes_raw()

    def issue_cert(self, as_id: int, as_public_key: bytes) -> AsCert:
        return AsCert(
            as_id=as_id,
            public_key=as_public_key,
            signature=self._key.sign(_cert_message(as_id, as_public_key)),
        )


class AsIdentity:
    """An AS's signing key plus helpers to enroll with a ledger."""

    def __init__(self, as_id: int, rng: Random):
        self.as_id = as_id
        self._key = Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
        self.public_key = self._key.public_key().public_bytes_raw()

    def proof_of_key(self, account: str) -> bytes:
        return self._key.sign(_proof_message(self.as_id, account))


# ---------------------------------------------------------------------------
# Credential sealing (authenticated key encapsulation stand-in)


def sealing_keypair(rng: Random) -> tuple[X25519PrivateKey, bytes]:
    priv = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    return priv, priv.public_key().public_bytes_raw()


def _seal_key(shared: bytes) -> bytes:
    return hashlib.sha256(_SEAL_CONTEXT + shared).digest()[:16]


def seal_credentials(
    rng: Random, recipient_pubkey: bytes, res: ReservationInfo, key: crypto.ReservationKey
) -> bytes:
    """Encrypt (ReservationInfo, A_K) to the requester's ephemeral key."""
    eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    shared = eph.exchange(X25519PublicKey.from_public_bytes(recipient_pubkey))
    # Fresh encapsulation key per blob, so a fixed nonce is safe.
    ct = AESGCM(_seal_key(shared)).encrypt(bytes(12), resinfo_block(res) + key, None)
    return eph.public_key().public_bytes_raw() + ct


def unseal_credentials(
    priv: X25519PrivateKey, blob: bytes
) -> tuple[ReservationInfo, crypto.ReservationKey]:
    if len(blob) < 32:
        raise LedgerError("credential blob too short")
    shared = priv.exchange(X25519PublicKey.from_public_bytes(blob[:32]))
    plain = AESGCM(_seal_key(shared)).decrypt(bytes(12), blob[32:], None)
    if len(plain) != 32:
        raise LedgerError(f"unexpected credential payload length {len(plain)}")
    return parse_resinfo_block(plain[:16]), plain[16:]


class ASControlService:
    """The part of an AS that answers redemption requests.

    Owns the secret value the AS's border routers police with and the
    ResID allocator for its ingress interfaces.  Lives outside the
    ledger state on purpose: its allocations are not transactional.
    """

    def __init__(self, as_id: int, sv: bytes, rng: Random):
        self.as_id = as_id
        self.sv = sv
        self.sv_prf = crypto.Prf(sv)
        self._rng = rng
        self.allocator = ResIdAllocator()

    def build_credentials(self, request: RedeemRequest) -> bytes:
        if request.as_id != self.as_id:
            raise LedgerError(
                f"request {request.request_id} addressed to AS {request.as_id}, not {self.as_id}"
            )
        handle = f"req-{request.request_id}"
        res_id = self.allocator.assign(
            request.ingress_interface,
            request.start_time,
            request.expiration_time,
            handle=handle,
        )
        try:
            res = ReservationInfo(
                ingress=request.ingress_interface,
                egress=request.egress_interface,
                res_id=res_id,
                bw_code=quantize_bw(request.bandwidth),
                res_start=request.start_time,
                duration=request.expiration_time - request.start_time,
            )
            a_key = crypto.derive_key(self.sv_prf, res)
            return seal_credentials(self._rng, request.ephemeral_pubkey, res, a_key)
        except BaseException:
            # Nothing was delivered, so a retry must find the ResID free.
            self.allocator.release(handle)
            raise


# ---------------------------------------------------------------------------
# The ledger


def _get(table: _Table, cls: type, ref, what: str):
    """The stored value for an id, or for a value of exactly class cls."""
    key = getattr(ref, _field_names(cls)[0]) if type(ref) is cls else ref
    try:
        return table[key]
    except KeyError:
        raise LedgerError(f"no such {what}: {key}") from None


_STRIDE = 128  # table entries between the sha256 states a table keeps


class _Table:
    """Stored values by id, plus their state_hash entries in hash order.

    `put` and `remove` are the only writes.  They note which ids changed
    since `order` was last read, and reading `order` moves just those
    ids' entries, so it always holds the `_fragment` of every value,
    sorted, which is the order `sort_keys` gives the ids: each entry
    starts with `"<id>":`, and `"` sorts before every digit.  A value
    replaced or removed before the next read, as most values written
    inside a block are, is never rendered.  Not a dict subclass: a
    dict's own writers (`pop`, `update`, `setdefault`, ...) would bypass
    the order.

    Reading `order` also lowers `_low` to the first index it moved since
    the last `hash_into`.  `hash_into` keeps sha256 states from its last
    call, one every `_STRIDE` entries and one at the end, tagged with the
    digest of everything hashed before the table.  When the tag matches,
    the next call resumes from the last kept state at or before `_low`,
    so it hashes only from there on and returns the same digest a full
    pass would.  A staged copy shares the kept states with the table it
    was copied from; each call builds a new list and never changes one,
    so either side's states match its own order, also after a rollback.
    """

    __slots__ = ("_values", "_order", "_changed", "_low", "_marks")

    def __init__(self, values: dict | None = None, order: list[str] | None = None,
                 changed: dict | None = None, low: int = 0, marks: tuple | None = None):
        self._values = {} if values is None else values
        self._order = [] if order is None else order
        # id -> the value whose entry `_order` holds for it, or None
        self._changed = {} if changed is None else changed
        # the first index of `_order` moved since the last hash_into
        self._low = low
        # from the last hash_into: (the digest before the table, entries
        # hashed, the sha256 state every _STRIDE entries, the end state)
        self._marks = marks

    def copy(self) -> _Table:
        return _Table(dict(self._values), list(self._order), dict(self._changed),
                      self._low, self._marks)

    def put(self, value: _Stored) -> None:
        """Add value under its id, or swap it in for the value stored there."""
        key = getattr(value, _field_names(type(value))[0])
        self._changed.setdefault(key, self._values.get(key))
        self._values[key] = value

    def remove(self, key: int) -> None:
        self._changed.setdefault(key, self._values[key])
        del self._values[key]

    @property
    def order(self) -> list[str]:
        """Every value's entry, sorted."""
        order, low = self._order, self._low
        for key, old in self._changed.items():
            if old is not None:
                index = bisect_left(order, old._fragment)
                del order[index]
                low = min(low, index)
            new = self._values.get(key)
            if new is not None:
                index = bisect_left(order, new._fragment)
                order.insert(index, new._fragment)
                low = min(low, index)
        self._changed.clear()
        self._low = low
        return order

    def hash_into(self, digest):
        """Feed the entries, comma-separated, to the sha256 object digest.

        Returns the sha256 object that holds the result: digest itself, or
        a copy of a kept state that went on from there.
        """
        order = self.order
        count, low, self._low = len(order), self._low, len(order)
        tag = digest.digest()
        if self._marks is not None and self._marks[0] == tag:
            _, hashed, states, end = self._marks
            if low >= hashed:
                if hashed == count:
                    return end.copy()
                start, digest = hashed, end.copy()
            else:
                start = low - low % _STRIDE
                digest = states[start // _STRIDE].copy()
            states = states[: -(-start // _STRIDE)]  # the states before start
        else:
            start, states = 0, []
        while start < count:
            if start % _STRIDE == 0:
                states.append(digest.copy())
            if start:
                digest.update(b",")
            stop = min(start - start % _STRIDE + _STRIDE, count)
            digest.update(",".join(order[start:stop]).encode())
            start = stop
        self._marks = (tag, count, states, digest.copy())
        return digest

    def __getitem__(self, key: int):
        return self._values[key]

    def get(self, key: int):
        return self._values.get(key)

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def values(self):
        return self._values.values()


@dataclass
class _State:
    balances: dict[str, int] = field(default_factory=dict)
    assets: _Table = field(default_factory=_Table)
    listings: _Table = field(default_factory=_Table)
    requests: _Table = field(default_factory=_Table)
    tokens: _Table = field(default_factory=_Table)
    sellers: set[str] = field(default_factory=set)
    next_id: int = 1

    def copy(self) -> _State:
        """New containers holding the same (immutable) values."""
        return _State(dict(self.balances), self.assets.copy(), self.listings.copy(),
                      self.requests.copy(), self.tokens.copy(), set(self.sellers), self.next_id)


class Ledger:
    """Serial, deterministic, replayable control-plane state machine."""

    #: operations allowed inside execute_atomic
    ATOMIC_OPS = (
        "register_as",
        "issue",
        "split_time",
        "split_bandwidth",
        "fuse_time",
        "fuse_bandwidth",
        "register_seller",
        "create_listing",
        "buy",
        "redeem",
    )

    def __init__(self, root_public_key: bytes, genesis: dict[str, int] | None = None):
        self._root = Ed25519PublicKey.from_public_bytes(root_public_key)
        self._state = _State()
        self._log: list[dict] = []
        self._in_block = False
        # the last dumps of the balances and the sellers, each with a copy
        # of what was dumped
        self._dumped = (None, b""), (None, b"")
        for account, balance in (genesis or {}).items():
            self.open_account(account, balance)

    # -- setup and readers --------------------------------------------------

    def open_account(self, account: str, balance: int = 0) -> None:
        """Genesis helper; mints currency, so it is not an atomic op."""
        if type(account) is not str:
            raise LedgerError(f"account name must be a str, got {account!r}")
        if type(balance) is not int or balance < 0:
            raise LedgerError(f"balance must be a non-negative int, got {balance!r}")
        if account in self._state.balances:
            raise LedgerError(f"account {account!r} already exists")
        self._state.balances[account] = balance

    def balance(self, account: str) -> int:
        return self._state.balances.get(account, 0)

    def asset(self, asset) -> BandwidthAsset:
        return _get(self._state.assets, BandwidthAsset, asset, "asset")

    def listing(self, listing) -> Listing:
        return _get(self._state.listings, Listing, listing, "listing")

    def request(self, request) -> RedeemRequest:
        return _get(self._state.requests, RedeemRequest, request, "redeem request")

    def open_listings(self) -> tuple[Listing, ...]:
        return tuple(self._state.listings.values())

    def reserved_area(self, as_id: int, interface: int, direction: Direction) -> int:
        """Conserved bandwidth-time total across split/fuse, per resource."""
        return sum(
            a.area
            for a in self._state.assets.values()
            if (a.as_id, a.interface, a.direction) == (as_id, interface, direction)
        )

    # -- registration and issuance ------------------------------------------

    def register_as(self, account: str, cert: AsCert, proof_of_key: bytes) -> AuthToken:
        self._require_account(account)
        try:
            self._root.verify(cert.signature, _cert_message(cert.as_id, cert.public_key))
        except InvalidSignature:
            raise LedgerError(f"certificate for AS {cert.as_id} does not verify") from None
        try:
            Ed25519PublicKey.from_public_bytes(cert.public_key).verify(
                proof_of_key, _proof_message(cert.as_id, account)
            )
        except InvalidSignature:
            raise LedgerError(f"proof of key for AS {cert.as_id} does not verify") from None
        token = AuthToken(token_id=self._fresh_id(), as_id=cert.as_id, account=account)
        self._state.tokens.put(token)
        self._record("register_as", (account, cert.as_id), f"token:{token.token_id}")
        return token

    def issue(
        self,
        account: str,
        token,
        *,
        bandwidth: int,
        start_time: int,
        expiration_time: int,
        interface: int,
        direction: Direction,
        time_granularity: int,
        min_bandwidth: int,
    ) -> BandwidthAsset:
        token = self._resolve_token(account, token)
        asset = BandwidthAsset(
            asset_id=0,  # placeholder for the id _replace_assets gives it
            as_id=token.as_id,
            bandwidth=bandwidth,
            start_time=start_time,
            expiration_time=expiration_time,
            interface=interface,
            direction=Direction(direction),
            time_granularity=time_granularity,
            min_bandwidth=min_bandwidth,
            owner=account,
        )
        (asset,) = self._replace_assets((), asset, {})
        self._record("issue", (account, token.as_id, bandwidth), f"asset:{asset.asset_id}")
        return asset

    # -- split and fuse ------------------------------------------------------

    def split_time(self, account: str, asset, cut: int) -> tuple[BandwidthAsset, BandwidthAsset]:
        asset = self._owned_asset(account, asset)
        pair = self._split_time(asset, cut)
        self._record("split_time", (account, asset.asset_id, cut),
                     f"assets:{pair[0].asset_id},{pair[1].asset_id}")
        return pair

    def split_bandwidth(
        self, account: str, asset, part: int
    ) -> tuple[BandwidthAsset, BandwidthAsset]:
        asset = self._owned_asset(account, asset)
        pair = self._split_bandwidth(asset, part)
        self._record("split_bandwidth", (account, asset.asset_id, part),
                     f"assets:{pair[0].asset_id},{pair[1].asset_id}")
        return pair

    def fuse_time(self, account: str, a, b) -> BandwidthAsset:
        a, b = self._fuse_pair(account, a, b)
        if a.bandwidth != b.bandwidth:
            raise LedgerError(f"bandwidth differs: {a.bandwidth} vs {b.bandwidth}")
        if a.expiration_time != b.start_time:
            raise LedgerError(
                f"assets not adjacent in time: {a.expiration_time} vs {b.start_time}"
            )
        return self._fuse("fuse_time", account, a, b, expiration_time=b.expiration_time)

    def fuse_bandwidth(self, account: str, a, b) -> BandwidthAsset:
        a, b = self._fuse_pair(account, a, b)
        if (a.start_time, a.expiration_time) != (b.start_time, b.expiration_time):
            raise LedgerError(
                f"time spans differ: [{a.start_time}, {a.expiration_time}) vs "
                f"[{b.start_time}, {b.expiration_time})"
            )
        return self._fuse("fuse_bandwidth", account, a, b, bandwidth=a.bandwidth + b.bandwidth)

    def _fuse_pair(self, account: str, a, b) -> tuple[BandwidthAsset, BandwidthAsset]:
        """Both assets, owned by account and alike in all but time and bandwidth."""
        a = self._owned_asset(account, a)
        b = self._owned_asset(account, b)
        if a.asset_id == b.asset_id:
            raise LedgerError("fuse needs two distinct assets")
        for name in ("as_id", "interface", "direction", "time_granularity", "min_bandwidth"):
            if getattr(a, name) != getattr(b, name):
                raise LedgerError(f"{name} differs: {getattr(a, name)} vs {getattr(b, name)}")
        return a, b

    def _fuse(self, op: str, account: str, a, b, **change) -> BandwidthAsset:
        (fused,) = self._replace_assets((a, b), a, change)
        self._record(op, (account, a.asset_id, b.asset_id), f"asset:{fused.asset_id}")
        return fused

    # -- marketplace ----------------------------------------------------------

    def register_seller(self, account: str) -> None:
        self._require_account(account)
        if account in self._state.sellers:
            raise LedgerError(f"{account!r} is already a registered seller")
        self._state.sellers.add(account)
        self._record("register_seller", (account,), "ok")

    def create_listing(self, account: str, asset, unit_price: int) -> Listing:
        if account not in self._state.sellers:
            raise LedgerError(f"{account!r} is not a registered seller")
        if type(unit_price) is not int or unit_price < 0:
            raise LedgerError(f"unit price must be a non-negative int, got {unit_price!r}")
        asset = self._owned_asset(account, asset)
        # Escrow: the market holds the asset while it is listed.
        self._state.assets.put(asset._with(owner=MARKET_ACCOUNT))
        listing = Listing(
            listing_id=self._fresh_id(),
            asset_id=asset.asset_id,
            unit_price=unit_price,
            seller=account,
        )
        self._state.listings.put(listing)
        self._record("create_listing", (account, asset.asset_id, unit_price),
                     f"listing:{listing.listing_id}")
        return listing

    def buy(
        self,
        account: str,
        listing,
        *,
        start_time: int,
        expiration_time: int,
        bandwidth: int,
    ) -> BandwidthAsset:
        """Purchase a fraction of a listing; remainders are re-listed.

        The market performs at most two time splits and one bandwidth
        split, so a partial purchase leaves up to three remainder
        listings at the same unit price.
        """
        self._require_account(account)
        if {type(start_time), type(expiration_time), type(bandwidth)} != {int}:
            raise LedgerError(f"wanted times and bandwidth must be ints, got [{start_time!r}, "
                              f"{expiration_time!r}) at {bandwidth!r} bit/s")
        listing = self.listing(listing)
        asset = self._state.assets[listing.asset_id]

        if not asset.start_time <= start_time < expiration_time <= asset.expiration_time:
            raise LedgerError(
                f"wanted [{start_time}, {expiration_time}) outside listed "
                f"[{asset.start_time}, {asset.expiration_time})"
            )
        for name, value in (("start", start_time), ("expiration", expiration_time)):
            if (value - asset.start_time) % asset.time_granularity:
                raise LedgerError(
                    f"wanted {name} {value} not aligned to granularity "
                    f"{asset.time_granularity} from {asset.start_time}"
                )
        if bandwidth > asset.bandwidth:
            raise LedgerError(f"wanted bandwidth {bandwidth} exceeds listed {asset.bandwidth}")
        if bandwidth < asset.min_bandwidth:
            raise LedgerError(f"wanted bandwidth {bandwidth} below minimum {asset.min_bandwidth}")
        leftover_bw = asset.bandwidth - bandwidth
        if 0 < leftover_bw < asset.min_bandwidth:
            raise LedgerError(
                f"purchase would strand {leftover_bw} bit/s below minimum {asset.min_bandwidth}"
            )
        price = listing.unit_price * bandwidth * (expiration_time - start_time)
        if self.balance(account) < price:
            raise LedgerError(f"{account!r} has {self.balance(account)}, needs {price}")

        self._state.listings.remove(listing.listing_id)
        remainders = []
        want = asset
        if start_time > want.start_time:
            before, want = self._split_time(want, start_time)
            remainders.append(before)
        if expiration_time < want.expiration_time:
            want, after = self._split_time(want, expiration_time)
            remainders.append(after)
        if bandwidth < want.bandwidth:
            rest, want = self._split_bandwidth(want, bandwidth)
            remainders.append(rest)

        self._state.balances[account] -= price
        self._state.balances[listing.seller] = (
            self._state.balances.get(listing.seller, 0) + price
        )
        bought = want._with(owner=account)
        self._state.assets.put(bought)
        relisted = []
        for remainder in remainders:
            new = Listing(
                listing_id=self._fresh_id(),
                asset_id=remainder.asset_id,
                unit_price=listing.unit_price,
                seller=listing.seller,
            )
            self._state.listings.put(new)
            relisted.append(new.listing_id)
        self._record(
            "buy",
            (account, listing.listing_id, start_time, expiration_time, bandwidth),
            f"asset:{bought.asset_id} paid:{price} relisted:{relisted}",
        )
        return bought

    # -- redemption ------------------------------------------------------------

    def redeem(
        self, account: str, ingress_asset, egress_asset, ephemeral_pubkey: bytes
    ) -> RedeemRequest:
        ingress = self._owned_asset(account, ingress_asset)
        egress = self._owned_asset(account, egress_asset)
        if ingress.asset_id == egress.asset_id:
            raise LedgerError("redeem needs two distinct assets")
        if (ingress.direction, egress.direction) != (Direction.INGRESS, Direction.EGRESS):
            raise LedgerError(
                f"directions must be (ingress, egress), got "
                f"({ingress.direction.value}, {egress.direction.value})"
            )
        if ingress.as_id != egress.as_id:
            raise LedgerError(f"AS mismatch: {ingress.as_id} vs {egress.as_id}")
        if (ingress.start_time, ingress.expiration_time) != (
            egress.start_time,
            egress.expiration_time,
        ):
            raise LedgerError("validity periods differ")
        if ingress.bandwidth != egress.bandwidth:
            raise LedgerError(f"bandwidth differs: {ingress.bandwidth} vs {egress.bandwidth}")
        # Wire-format limits, checked here so atomic blocks fail early.
        if ingress.duration >= (1 << 16):
            raise LedgerError(f"duration {ingress.duration}s does not fit the 16-bit wire field")
        if ingress.expiration_time >= (1 << 32):
            raise LedgerError("expiration beyond 32-bit unix seconds")
        if ingress.bandwidth > MAX_BW_VALUE:
            raise LedgerError(f"bandwidth {ingress.bandwidth} not encodable")
        if type(ephemeral_pubkey) is not bytes or len(ephemeral_pubkey) != 32:
            raise LedgerError("ephemeral public key must be 32 bytes")
        try:
            # Any fixed private key will do: an exchange fails exactly on
            # the low-order points, which no credentials can be sealed to.
            _low_order_probe().exchange(X25519PublicKey.from_public_bytes(ephemeral_pubkey))
        except ValueError:
            raise LedgerError("ephemeral public key is a low-order point") from None
        request = RedeemRequest(
            request_id=self._fresh_id(),
            as_id=ingress.as_id,
            owner=account,
            ingress_interface=ingress.interface,
            egress_interface=egress.interface,
            bandwidth=ingress.bandwidth,
            start_time=ingress.start_time,
            expiration_time=ingress.expiration_time,
            ephemeral_pubkey=ephemeral_pubkey,
        )
        # Redemption destroys the assets; the ids are never reused.
        self._replace_assets((ingress, egress), ())
        self._state.requests.put(request)
        self._record(
            "redeem",
            (account, ingress.asset_id, egress.asset_id),
            f"request:{request.request_id}",
        )
        return request

    def deliver_reservation(self, service: ASControlService, request) -> bytes:
        """Route a redeem request to its AS and store the sealed answer.

        Not allowed inside atomic blocks: the allocator assignment is
        an external side effect that a rollback could not undo.
        """
        if self._in_block:
            raise LedgerError("deliver_reservation cannot run inside an atomic block")
        request = self.request(request)
        if request.delivered:
            raise LedgerError(f"request {request.request_id} already delivered")
        blob = service.build_credentials(request)
        self._state.requests.put(request._with(delivered=True, credentials=blob))
        self._record(
            "deliver_reservation",
            (service.as_id, request.request_id),
            f"sealed:{len(blob)}B",
        )
        return blob

    # -- atomic blocks -----------------------------------------------------------

    def execute_atomic(self, block: list[Call]) -> tuple:
        """Run all calls or none: stage on a copy, commit only on success."""
        if self._in_block:
            raise LedgerError("atomic blocks do not nest")
        for call in block:
            if call.op not in self.ATOMIC_OPS:
                raise LedgerError(f"operation not allowed in atomic block: {call.op!r}")
        saved = self._state
        self._state = saved.copy()
        self._in_block = True
        results: list = []
        try:
            for call in block:
                args = tuple(self._resolve_ref(a, results) for a in call.args)
                kwargs = {
                    k: self._resolve_ref(v, results) for k, v in call.kwargs.items()
                }
                results.append(getattr(self, call.op)(*args, **kwargs))
        except Exception:
            self._state = saved
            self._in_block = False
            self._record("execute_atomic", self._block_digest(block), "rolled_back")
            raise
        self._in_block = False
        self._record("execute_atomic", self._block_digest(block), f"ok:{len(results)}")
        return tuple(results)

    @staticmethod
    def _resolve_ref(value, results: list):
        if isinstance(value, Result):
            resolved = results[value.index]
            return resolved if value.item is None else resolved[value.item]
        return value

    @staticmethod
    def _block_digest(block: list[Call]) -> tuple:
        return tuple((c.op, repr(c.args), repr(sorted(c.kwargs.items()))) for c in block)

    # -- integrity ------------------------------------------------------------

    def state_hash(self) -> str:
        """Digest of everything except the call log.

        The digest covers one canonical JSON dump of the state (sorted
        keys, no spaces), fed to sha256 piece by piece and never built
        as one string.  Each table's entries are already in `sort_keys`
        order, and the top-level keys are written in that order too.
        The digest is resumed, not recomputed: each table starts again
        from the sha256 state it kept at or before its first changed
        entry (see `_Table`), and the balances and sellers are dumped
        again only when they differ from the last dump.
        """
        state = self._state
        balances, sellers = self._dumped
        if balances[0] != state.balances:
            balances = dict(state.balances), _dumps(state.balances).encode()
        if sellers[0] != state.sellers:
            sellers = frozenset(state.sellers), _dumps(sorted(state.sellers)).encode()
        self._dumped = balances, sellers
        digest = state.assets.hash_into(hashlib.sha256(b'{"assets":{'))
        digest.update(b'},"balances":%s,"listings":{' % balances[1])
        digest = state.listings.hash_into(digest)
        digest.update(b'},"next_id":%d,"requests":{' % state.next_id)
        digest = state.requests.hash_into(digest)
        digest.update(b'},"sellers":%s,"tokens":{' % sellers[1])
        digest = state.tokens.hash_into(digest)
        digest.update(b"}}")
        return digest.hexdigest()

    def export_log(self) -> tuple[dict, ...]:
        return tuple(dict(r) for r in self._log)

    def format_log(self) -> str:
        lines = []
        for r in self._log:
            lines.append(
                f"{r['seq']:>4}  {r['op']:<20} args={r['args']}  -> {r['result']}  "
                f"state={r['state'][:12]}"
            )
        return "\n".join(lines)

    # -- internals -------------------------------------------------------------

    def _record(self, op: str, args, result: str) -> None:
        if self._in_block:
            return  # the enclosing execute_atomic logs once for the block
        digest = hashlib.sha256(repr(args).encode()).hexdigest()[:16]
        self._log.append(
            {
                "seq": len(self._log),
                "op": op,
                "args": digest,
                "result": result,
                "state": self.state_hash(),
            }
        )

    def _fresh_id(self) -> int:
        value = self._state.next_id
        self._state.next_id += 1
        return value

    def _require_account(self, account: str) -> None:
        if account not in self._state.balances:
            raise LedgerError(f"unknown account: {account!r}")

    def _owned_asset(self, account: str, asset) -> BandwidthAsset:
        asset = self.asset(asset)
        if asset.owner != account:
            raise LedgerError(
                f"asset {asset.asset_id} is owned by {asset.owner!r}, not {account!r}"
            )
        return asset

    def _resolve_token(self, account: str, token) -> AuthToken:
        token = _get(self._state.tokens, AuthToken, token, "token")
        if token.account != account:
            raise LedgerError(
                f"token {token.token_id} belongs to {token.account!r}, not {account!r}"
            )
        return token

    def _split_time(
        self, asset: BandwidthAsset, cut: int
    ) -> tuple[BandwidthAsset, BandwidthAsset]:
        if not asset.start_time < cut < asset.expiration_time:
            raise LedgerError(f"cut {cut} outside ({asset.start_time}, {asset.expiration_time})")
        if (cut - asset.start_time) % asset.time_granularity:
            raise LedgerError(
                f"cut {cut} not aligned to granularity {asset.time_granularity} "
                f"from {asset.start_time}"
            )
        return self._replace_assets((asset,), asset, {"expiration_time": cut}, {"start_time": cut})

    def _split_bandwidth(
        self, asset: BandwidthAsset, part: int
    ) -> tuple[BandwidthAsset, BandwidthAsset]:
        rest = asset.bandwidth - part
        if part <= 0 or rest <= 0:
            raise LedgerError(f"part {part} must split {asset.bandwidth} into two positive pieces")
        if part < asset.min_bandwidth or rest < asset.min_bandwidth:
            raise LedgerError(
                f"split ({rest}, {part}) violates minimum bandwidth {asset.min_bandwidth}"
            )
        return self._replace_assets((asset,), asset, {"bandwidth": rest}, {"bandwidth": part})

    def _replace_assets(self, old: tuple, base: BandwidthAsset, *changes: dict) -> tuple:
        """Swap in for the old assets one new asset per change to base, all
        validated before they take the next free ids."""
        state = self._state
        new = tuple(base._with(asset_id=state.next_id + i, **change)
                    for i, change in enumerate(changes))
        for asset in new:
            asset.validate()
        state.next_id += len(new)
        for asset in old:
            state.assets.remove(asset.asset_id)
        for asset in new:
            state.assets.put(asset)
        return new
