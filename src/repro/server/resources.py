"""Resource id management.

Like X, resource ids (LOUDs, virtual devices, wires, sounds) are
allocated by the *client* out of an id range granted at connection setup;
the server validates ownership and uniqueness.  Ids below
``FIRST_CLIENT_ID`` belong to the server itself -- the device LOUD and
the physical devices it contains live there.
"""

from __future__ import annotations

from ..protocol.errors import bad
from ..protocol.setup import ID_RANGE_SIZE
from ..protocol.types import ErrorCode

#: Server-owned ids occupy [1, FIRST_CLIENT_ID); client ranges follow.
FIRST_CLIENT_ID = ID_RANGE_SIZE

#: The device LOUD always has this well-known id.
DEVICE_LOUD_ID = 1


class ResourceTable:
    """All live resources, by id, with client-ownership bookkeeping."""

    def __init__(self, on_remove=None) -> None:
        self._resources: dict[int, object] = {}
        #: Called with each removed id (the server drops its selections).
        self._on_remove = on_remove
        self._owner: dict[int, int] = {}    # resource id -> client id base
        self._next_client_base = FIRST_CLIENT_ID
        self._released: set[int] = set()    # granted but returned unused

    def grant_range(self) -> tuple[int, int]:
        """Allocate an (id_base, id_mask) range for a new client."""
        if self._released:
            base = min(self._released)
            self._released.remove(base)
            return base, ID_RANGE_SIZE - 1
        base = self._next_client_base
        self._next_client_base += ID_RANGE_SIZE
        return base, ID_RANGE_SIZE - 1

    def release_range(self, base: int) -> None:
        """Return an *unused* range whose client never materialized.

        Only safe when no resource was ever created in the range (a
        setup handshake that failed after the grant); a released base
        goes back into the pool and stops being resumable.
        """
        if self.was_granted(base) and not self.range_in_use(base):
            self._released.add(base)

    def was_granted(self, base: int) -> bool:
        """Whether ``base`` is a range this table handed out earlier.

        Ranges are never re-granted to fresh clients, so a previously
        granted base can safely be *resumed* by a reconnecting client
        once its old incarnation's resources are gone.  Released ranges
        are excluded: they may be re-granted and must not be resumed.
        """
        return (base >= FIRST_CLIENT_ID
                and base < self._next_client_base
                and (base - FIRST_CLIENT_ID) % ID_RANGE_SIZE == 0
                and base not in self._released)

    def range_in_use(self, base: int) -> bool:
        """Whether any live resource still belongs to ``base``."""
        return any(owner == base for owner in self._owner.values())

    def add_server_resource(self, resource_id: int, resource: object) -> None:
        """Register a server-owned resource (device LOUD entries)."""
        if resource_id >= FIRST_CLIENT_ID:
            raise ValueError("server resources must use low ids")
        self._resources[resource_id] = resource

    def add(self, client_base: int, resource_id: int,
            resource: object) -> None:
        """Register a client-created resource, validating the id."""
        if not client_base <= resource_id < client_base + ID_RANGE_SIZE:
            raise bad(ErrorCode.BAD_ID_CHOICE,
                      "id outside the client's range", resource_id)
        if resource_id in self._resources:
            raise bad(ErrorCode.BAD_ID_CHOICE, "id already in use",
                      resource_id)
        self._resources[resource_id] = resource
        self._owner[resource_id] = client_base

    def remove(self, resource_id: int) -> None:
        self._resources.pop(resource_id, None)
        self._owner.pop(resource_id, None)
        if self._on_remove is not None:
            self._on_remove(resource_id)

    def get(self, resource_id: int, expected_type: type | None = None,
            error_code: ErrorCode = ErrorCode.BAD_VALUE) -> object:
        """Look up a resource, raising the class-appropriate error."""
        resource = self._resources.get(resource_id)
        if resource is None or (expected_type is not None
                                and not isinstance(resource, expected_type)):
            raise bad(error_code, "no such resource", resource_id)
        return resource

    def maybe_get(self, resource_id: int) -> object | None:
        return self._resources.get(resource_id)

    def all_items(self) -> list[tuple[int, object]]:
        """Every (id, resource) pair (query-snapshot construction)."""
        return list(self._resources.items())

    def owned_by(self, client_base: int) -> list[int]:
        """All resource ids a client owns (for disconnect cleanup)."""
        return [resource_id for resource_id, owner in self._owner.items()
                if owner == client_base]

    def __contains__(self, resource_id: int) -> bool:
        return resource_id in self._resources

    def __len__(self) -> int:
        return len(self._resources)
