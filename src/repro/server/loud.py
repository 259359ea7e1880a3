"""LOUDs: logical audio devices.

"Audio structures are constructed by organizing one or more virtual
devices within containers called logical audio devices or LOUDs.  LOUDs
can then be constructed into a tree hierarchy ...  The root of the LOUD
tree is used to control and coordinate the audio streams to the LOUDs in
the tree.  A command queue is provided for each root LOUD."
(paper section 5.1)
"""

from __future__ import annotations

from ..protocol.attributes import AttributeList
from ..protocol.errors import bad
from ..protocol.types import ErrorCode
from .properties import PropertyStore


class Loud(PropertyStore):
    """One logical audio device container."""

    def __init__(self, loud_id: int, server, parent: "Loud | None" = None,
                 attributes: AttributeList | None = None,
                 owner=None) -> None:
        super().__init__()
        self.loud_id = loud_id
        self.server = server
        self.parent = parent
        self.attributes = attributes or AttributeList()
        self.owner = owner          # the creating client (None for server)
        self.children: list[Loud] = []
        self.devices: list = []     # virtual devices directly inside
        self.mapped = False
        self.active = False
        self._saved_state: dict[int, dict] = {}
        self.queue = None
        if parent is None:
            from .conductor import CommandQueue

            self.queue = CommandQueue(self)
        else:
            parent.children.append(self)

    # -- tree -----------------------------------------------------------------

    def root(self) -> "Loud":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def is_root(self) -> bool:
        return self.parent is None

    def all_louds(self) -> list["Loud"]:
        """This LOUD and every descendant."""
        found = [self]
        for child in self.children:
            found.extend(child.all_louds())
        return found

    def all_devices(self) -> list:
        """Every virtual device in this subtree."""
        found = list(self.devices)
        for child in self.children:
            found.extend(child.all_devices())
        return found

    def render_row(self) -> tuple:
        """This root's render-plan row: (command queue, flat devices).

        The device tuple is frozen at plan-build time so every block
        reuses it without walking the mutable tree.
        """
        return (self.queue, tuple(self.all_devices()))

    def find_device(self, device_id: int):
        """The virtual device ``device_id`` in this subtree; the search
        stops at the first match."""
        pending = [self]
        while pending:
            loud = pending.pop()
            for device in loud.devices:
                if device.device_id == device_id:
                    return device
            pending += loud.children
        raise bad(ErrorCode.BAD_DEVICE,
                  "device %d is not in this LOUD tree" % device_id,
                  device_id)

    # -- state save/restore across deactivation (paper section 5.4) -----------

    def save_device_states(self) -> None:
        """"The state of the functional devices controlled by the LOUD
        are stored in its virtual devices, so that the server can restore
        the LOUD's devices to their state prior to the moment the LOUD
        was deactivated."
        """
        for device in self.all_devices():
            self._saved_state[device.device_id] = device.save_state()

    def restore_device_states(self) -> None:
        for device in self.all_devices():
            saved = self._saved_state.get(device.device_id)
            if saved is not None:
                device.restore_state(saved)

    # -- teardown -------------------------------------------------------------

    def destroy(self) -> None:
        """Destroy this LOUD and its whole subtree."""
        for child in list(self.children):
            child.destroy()
        for device in list(self.devices):
            for wire in list(device.wires):
                wire.destroy()
                self.server.resources.remove(wire.wire_id)
            device.unbind()
            self.server.resources.remove(device.device_id)
        self.devices = []
        if self.parent is not None and self in self.parent.children:
            self.parent.children.remove(self)
        self.server.resources.remove(self.loud_id)
        self.server.invalidate_render_plan()
