"""Mapping, binding and the active stack.

"LOUD access to shared resources is controlled by an active stack, which
is the fundamental scheduling mechanism in the server.  When a LOUD is
mapped, it is put on the active stack ...  The server activates as many
LOUDs as it can at one time.  It does this by starting at the top of the
active stack and activating all LOUDs that do not require a resource
that is being used exclusively by another active LOUD."
(paper section 5.4)
"""

from __future__ import annotations

from ..protocol.attributes import (
    ATTR_EXCLUSIVE_INPUT,
    ATTR_EXCLUSIVE_OUTPUT,
)
from ..protocol.errors import bad
from ..protocol.types import DeviceClass, ErrorCode, EventCode, StackPosition
from .loud import Loud


class ActiveStack:
    """The mapped root LOUDs, top first, plus the activation algorithm."""

    def __init__(self, server) -> None:
        self.server = server
        self._stack: list[Loud] = []    # index 0 = top

    # -- queries --------------------------------------------------------------

    def index_of(self, loud: Loud) -> int:
        try:
            return self._stack.index(loud)
        except ValueError:
            return -1

    def active_louds(self) -> list[Loud]:
        return [loud for loud in self._stack if loud.active]

    def render_rows(self) -> list[tuple]:
        """The precompiled render plan: one row per active root LOUD.

        Rows are mutually independent (wires never cross LOUD trees);
        stack order fixes the deterministic render order.
        """
        return [loud.render_row() for loud in self.active_louds()]

    def __len__(self) -> int:
        return len(self._stack)

    # -- map / unmap / restack ------------------------------------------------

    def map_loud(self, loud: Loud) -> None:
        if not loud.is_root():
            raise bad(ErrorCode.BAD_MATCH, "only root LOUDs can be mapped",
                      loud.loud_id)
        if loud.mapped:
            return
        self._bind_tree(loud)
        loud.mapped = True
        self._stack.insert(0, loud)     # "put it on the active stack" (top)
        self.server.events.emit(
            EventCode.MAP_NOTIFY, loud.loud_id,
            sample_time=self.server.hub.sample_time)
        self.recompute()

    def unmap_loud(self, loud: Loud) -> None:
        if not loud.mapped:
            return
        if loud.active:
            self._deactivate(loud)
        loud.mapped = False
        if loud in self._stack:
            self._stack.remove(loud)
        for device in loud.all_devices():
            device.unbind()
        self.server.events.emit(
            EventCode.UNMAP_NOTIFY, loud.loud_id,
            sample_time=self.server.hub.sample_time)
        self.recompute()

    def restack(self, loud: Loud, position: StackPosition) -> None:
        if not loud.mapped:
            raise bad(ErrorCode.BAD_MATCH, "LOUD is not mapped",
                      loud.loud_id)
        self._stack.remove(loud)
        if position is StackPosition.TOP:
            self._stack.insert(0, loud)
        else:
            self._stack.append(loud)
        self.recompute()

    # -- binding (paper section 5.3) ------------------------------------------

    def _bind_tree(self, loud: Loud) -> None:
        """Bind every virtual device in the tree to a physical device.

        "The server does not bind a virtual device to a physical device
        until the LOUD has been mapped.  At this point, the server
        examines the attributes given when the LOUD was created to find
        a matching device."
        """
        chosen: dict[int, object] = {}  # vdevice id -> wrapper
        claimed_exclusive: set[int] = set()
        for vdevice in loud.all_devices():
            if vdevice.BINDS_TO is None:
                continue
            candidates = [wrapper for wrapper in self.server.physicals
                          if wrapper.device_class is vdevice.BINDS_TO
                          and wrapper.matches(vdevice.attributes)]
            candidates = [wrapper for wrapper in candidates
                          if not (wrapper.exclusive
                                  and wrapper.device_id in claimed_exclusive)]
            if not candidates:
                self._unbind_partial(chosen)
                raise bad(ErrorCode.BAD_MATCH,
                          "no physical device satisfies the attributes of "
                          "virtual device %d" % vdevice.device_id,
                          vdevice.device_id)
            # Among matches, prefer an exclusive device nobody else holds
            # (a second telephone application should get the second line,
            # not contend for the first).
            free = [wrapper for wrapper in candidates
                    if not (wrapper.exclusive and wrapper.bound_vdevices)]
            wrapper = (free or candidates)[0]
            chosen[vdevice.device_id] = (vdevice, wrapper)
            if wrapper.exclusive:
                claimed_exclusive.add(wrapper.device_id)
        self._check_hard_wiring(loud, chosen)
        for vdevice, wrapper in chosen.values():
            vdevice.bind(wrapper)

    def _unbind_partial(self, chosen: dict) -> None:
        for vdevice, _wrapper in chosen.values():
            vdevice.unbind()

    def _check_hard_wiring(self, loud: Loud, chosen: dict) -> None:
        """Permanent-wiring rules (paper section 5.2).

        If a wire connects two virtual devices whose physical devices
        belong to hard-wired groups, the groups must match: you cannot
        wire one half of a speakerphone to something that is not the
        other half.
        """
        for vdevice in loud.all_devices():
            for wire in vdevice.wires:
                if wire.source_device is not vdevice:
                    continue
                source_binding = chosen.get(wire.source_device.device_id)
                sink_binding = chosen.get(wire.sink_device.device_id)
                if source_binding is None or sink_binding is None:
                    continue    # software device on one end: fine
                source_group = source_binding[1].hard_group
                sink_group = sink_binding[1].hard_group
                if (source_group is not None or sink_group is not None) \
                        and source_group != sink_group:
                    self._unbind_partial(chosen)
                    raise bad(ErrorCode.BAD_ACCESS,
                              "wire %d crosses a hard-wired device boundary"
                              % wire.wire_id, wire.wire_id)

    # -- activation (paper section 5.4) ---------------------------------------

    def recompute(self) -> None:
        """Re-derive which LOUDs are active, top of stack first."""
        # Anything that lands here may have changed the active set or a
        # LOUD's device bindings: drop the precompiled render plan.
        self.server.invalidate_render_plan()
        exclusive_devices: set[int] = set()
        excluded_domain_class: set[tuple[str, DeviceClass]] = set()
        for loud in self._stack:
            can_activate = self._fits(loud, exclusive_devices,
                                      excluded_domain_class)
            if can_activate:
                self._claim(loud, exclusive_devices, excluded_domain_class)
                if not loud.active:
                    self._activate(loud)
            else:
                if loud.active:
                    self._deactivate(loud)

    def _fits(self, loud: Loud, exclusive_devices: set[int],
              excluded_domain_class: set) -> bool:
        for vdevice in loud.all_devices():
            wrapper = vdevice.bound
            if wrapper is None:
                continue
            if wrapper.device_id in exclusive_devices:
                return False
            if (wrapper.domain, wrapper.device_class) \
                    in excluded_domain_class:
                return False
        return True

    def _claim(self, loud: Loud, exclusive_devices: set[int],
               excluded_domain_class: set) -> None:
        for vdevice in loud.all_devices():
            wrapper = vdevice.bound
            if wrapper is None:
                continue
            if wrapper.exclusive:
                exclusive_devices.add(wrapper.device_id)
            # "Requesting a device with the exclusive input attribute
            # preempts all other devices of class input in the same
            # ambient domain."  (paper section 5.8)
            if vdevice.attributes.get(ATTR_EXCLUSIVE_INPUT):
                excluded_domain_class.add(
                    (wrapper.domain, DeviceClass.INPUT))
            if vdevice.attributes.get(ATTR_EXCLUSIVE_OUTPUT):
                excluded_domain_class.add(
                    (wrapper.domain, DeviceClass.OUTPUT))

    def _activate(self, loud: Loud) -> None:
        loud.active = True
        loud.restore_device_states()
        if loud.queue is not None:
            loud.queue.server_resume()
        self.server.events.emit(
            EventCode.ACTIVATE_NOTIFY, loud.loud_id,
            sample_time=self.server.hub.sample_time)

    def _deactivate(self, loud: Loud) -> None:
        loud.save_device_states()
        if loud.queue is not None:
            loud.queue.server_pause()
        loud.active = False
        self.server.events.emit(
            EventCode.DEACTIVATE_NOTIFY, loud.loud_id,
            sample_time=self.server.hub.sample_time)
