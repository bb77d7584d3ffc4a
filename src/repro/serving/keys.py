"""Per-tenant key material for the serving layer.

Every tenant of a :class:`~repro.serving.engine.ServingEngine` owns a
:class:`TenantKeys` bundle — secret/public/relinearization keys plus a
lazily-grown rotation key set — all generated for the *one* CKKS context
the engine serves (the prime chains and ring degree are shared; the key
material is not).  The bundle's ``key_id`` is what the request coalescer
keys on for key-consuming operations: two tenants whose bundles share a
``key_id`` (registered via :meth:`KeyRegistry.alias`, the "many sessions
of one data owner" shape) fuse their HMULT/HROTATE streams into one
launch, while tenants with distinct bundles only fuse their key-less
operations (HADD, CMULT, RESCALE) across each other.

The registry also holds the tenant's decryptor.  That is a reproduction
convenience for round-trip verification in tests, examples and
benchmarks — a production deployment would keep secret keys client-side
and register public material only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple, Union

from ..ckks.context import CkksContext
from ..ckks.decryptor import Decryptor
from ..ckks.encryptor import Encryptor
from ..ckks.keygen import KeyGenerator
from ..ckks.keys import PublicKey, RotationKeySet, SecretKey, SwitchKey
from .errors import UnknownTenant

__all__ = ["TenantKeys", "KeyRegistry"]


@dataclass
class TenantKeys:
    """One tenant's complete key bundle plus client-side helpers."""

    tenant: str
    #: Identity of the underlying key material; aliases share it, and the
    #: request coalescer fuses key-consuming ops only within one key_id.
    key_id: str
    secret_key: SecretKey
    public_key: PublicKey
    relinearization_key: SwitchKey
    rotation_keys: RotationKeySet
    encryptor: Encryptor = field(repr=False)
    decryptor: Decryptor = field(repr=False)

    def with_tenant(self, tenant: str) -> "TenantKeys":
        """The same bundle registered under another tenant id (an alias)."""
        return TenantKeys(
            tenant=tenant, key_id=self.key_id,
            secret_key=self.secret_key, public_key=self.public_key,
            relinearization_key=self.relinearization_key,
            rotation_keys=self.rotation_keys,
            encryptor=self.encryptor, decryptor=self.decryptor,
        )


class KeyRegistry:
    """Tenant-id → key-bundle mapping for one CKKS context."""

    def __init__(self, context: CkksContext, *,
                 keygen: Optional[KeyGenerator] = None) -> None:
        self.context = context
        self.keygen = keygen if keygen is not None else KeyGenerator(context)
        self._bundles: Dict[str, TenantKeys] = {}
        self._key_ids = itertools.count()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, tenant: str,
                 rotation_steps: Iterable[int] = ()) -> TenantKeys:
        """Generate a fresh key bundle for ``tenant``.

        Rotation keys beyond ``rotation_steps`` (and the conjugation key,
        which is always included) are generated lazily on first use via
        :meth:`ensure_rotation_keys`.
        """
        self._check_unregistered(tenant)      # before any key is generated
        keygen = self.keygen
        secret = keygen.generate_secret_key()
        public = keygen.generate_public_key(secret)
        return self.adopt(
            tenant, secret_key=secret, public_key=public,
            relinearization_key=keygen.generate_relinearization_key(secret),
            rotation_keys=keygen.generate_rotation_keys(secret, rotation_steps))

    def adopt(self, tenant: str, *, secret_key: SecretKey,
              public_key: PublicKey, relinearization_key: SwitchKey,
              rotation_keys: RotationKeySet) -> TenantKeys:
        """Register existing key material (e.g. a facade's) under ``tenant``."""
        self._check_unregistered(tenant)
        bundle = TenantKeys(
            tenant=tenant,
            key_id="key-%d" % next(self._key_ids),
            secret_key=secret_key,
            public_key=public_key,
            relinearization_key=relinearization_key,
            rotation_keys=rotation_keys,
            encryptor=Encryptor(self.context, public_key, secret_key),
            decryptor=Decryptor(self.context, secret_key),
        )
        self._bundles[tenant] = bundle
        return bundle

    def alias(self, tenant: str, source: Union[str, TenantKeys]) -> TenantKeys:
        """Register ``tenant`` as another session of ``source``'s key material.

        Aliased tenants keep separate quotas and health state but share the
        ``key_id``, so their key-consuming operations coalesce.
        """
        self._check_unregistered(tenant)
        bundle = (source if isinstance(source, TenantKeys)
                  else self.get(source)).with_tenant(tenant)
        self._bundles[tenant] = bundle
        return bundle

    def _check_unregistered(self, tenant: str) -> None:
        if tenant in self._bundles:
            raise ValueError("tenant %r is already registered" % tenant)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, tenant: str) -> TenantKeys:
        try:
            return self._bundles[tenant]
        except KeyError:
            raise UnknownTenant(
                "no key bundle registered for tenant %r; register it first"
                % tenant) from None

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._bundles

    def __len__(self) -> int:
        return len(self._bundles)

    @property
    def tenants(self) -> Tuple[str, ...]:
        return tuple(self._bundles)

    # ------------------------------------------------------------------
    def ensure_rotation_keys(self, tenant: Union[str, TenantKeys],
                             steps: Iterable[int]) -> TenantKeys:
        """Lazily generate any missing rotation keys for the tenant.

        Reuses :meth:`KeyGenerator.ensure_rotation_keys` — the same lazy
        path the facade's ``ensure_rotation_keys`` delegates to — against
        the tenant's own secret key and rotation key set.
        """
        bundle = tenant if isinstance(tenant, TenantKeys) else self.get(tenant)
        self.keygen.ensure_rotation_keys(bundle.secret_key,
                                         bundle.rotation_keys, steps)
        return bundle
