"""The "dumb" application agent of centralized/parallel control."""

from __future__ import annotations

from repro.core.programs import ExecutionContext
from repro.runtime.metrics import Mechanism
from repro.runtime.messages import Message
from repro.runtime.node import Node

__all__ = [
    "ApplicationAgentNode",
    "VERB_COMPENSATE_ACK",
    "VERB_STATE_INFO_REPLY",
    "VERB_STEP_RESULT",
]

# Internal (non-WI) protocol verbs between engine and agents.
VERB_STEP_RESULT = "StepResult"
VERB_COMPENSATE_ACK = "CompensateAck"
VERB_STATE_INFO_REPLY = "StateInformationReply"


class ApplicationAgentNode(Node):
    """A "dumb" application agent: executes and compensates step programs.

    The agent knows nothing about workflow structure; it receives fully
    resolved input values, runs the (black box) program after the step's
    simulated service time, and reports the result.
    """

    def __init__(self, name: str, system):
        super().__init__(name, system.simulator, system.network)
        self.system = system
        self.executing = 0
        self.handlers.update({
            "StepExecute": self._on_step_execute,
            "StepCompensate": self._on_step_compensate,
            "StateInformation": self._on_state_information,
        })

    def on_crash(self) -> None:
        # In-progress executions die with the node; their completion
        # continuations are crash-epoch-gated in schedule_causal, so the
        # load counter must restart from zero too.
        self.executing = 0

    # -- execution -------------------------------------------------------------

    def _on_step_execute(self, message: Message) -> None:
        payload = message.payload
        self.executing += 1
        cost = payload["cost"]
        delay = cost * self.system.config.work_time_scale
        self.schedule_causal(delay, self._complete_step, message)

    def _complete_step(self, message: Message) -> None:
        payload = message.payload
        self.executing -= 1
        schema_name = payload["schema_name"]
        step = payload["step"]
        compiled = self.system.compiled(schema_name)
        step_def = compiled.schema.steps[step]
        program = self.system.programs.get(step_def.program, step_def.outputs)
        ctx = ExecutionContext(
            schema_name=schema_name,
            instance_id=payload["instance_id"],
            step=step,
            attempt=payload["attempt"],
            now=self.simulator.now,
            node=self.name,
            rng=self.system.rng.stream(f"prog:{payload['instance_id']}:{step}"),
        )
        result = program.execute(payload["inputs"], ctx)
        self.network.metrics.record_work(self.name, "execute", payload["cost"])
        self.send(
            message.src,
            VERB_STEP_RESULT,
            {
                "instance_id": payload["instance_id"],
                "schema_name": schema_name,
                "step": step,
                "epoch": payload["epoch"],
                "success": result.success,
                "outputs": result.outputs,
                "error": result.error,
            },
            Mechanism(payload["mechanism"]),
        )

    # -- compensation -------------------------------------------------------------

    def _on_step_compensate(self, message: Message) -> None:
        payload = message.payload
        delay = payload["cost"] * self.system.config.work_time_scale
        self.schedule_causal(delay, self._complete_compensation, message)

    def _complete_compensation(self, message: Message) -> None:
        payload = message.payload
        self.network.metrics.record_work(self.name, "compensate", payload["cost"])
        self.send(
            message.src,
            VERB_COMPENSATE_ACK,
            {
                "instance_id": payload["instance_id"],
                "step": payload["step"],
                "chain_id": payload["chain_id"],
            },
            Mechanism(payload["mechanism"]),
        )

    # -- probing --------------------------------------------------------------------

    def _on_state_information(self, message: Message) -> None:
        self.send(
            message.src,
            VERB_STATE_INFO_REPLY,
            {"probe_id": message.payload["probe_id"], "load": self.executing},
            Mechanism(message.payload["mechanism"]),
        )
