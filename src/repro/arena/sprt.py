"""Sequential probability ratio test (SPRT) for match stopping.

Strength comparisons waste games when one side is clearly dominant;
the SPRT stops a matchup as soon as the evidence crosses a likelihood
threshold, the standard tool in engine-testing frameworks.  We test
H0: p = p0 against H1: p = p1 (win probability of the subject, draws
counted as half a win via the trinomial-to-binomial reduction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arena.match import play_game
from repro.arena.tournament import MatchupResult
from repro.util.seeding import SeedLadder

#: Possible verdicts.
CONTINUE = "continue"
ACCEPT_H1 = "accept_h1"  # subject is at least as strong as p1
ACCEPT_H0 = "accept_h0"  # subject is no stronger than p0


@dataclass
class Sprt:
    """An anytime win-probability test.

    Parameters
    ----------
    p0, p1:
        The two hypothesised win probabilities (``p0 < p1``).
    alpha, beta:
        Type-I and type-II error rates; they set the log-likelihood
        stopping bounds ``log((1-beta)/alpha)`` and
        ``log(beta/(1-alpha))``.
    """

    p0: float
    p1: float
    alpha: float = 0.05
    beta: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.p0 < self.p1 < 1.0:
            raise ValueError(
                f"need 0 < p0 < p1 < 1, got p0={self.p0}, p1={self.p1}"
            )
        if not (0 < self.alpha < 1 and 0 < self.beta < 1):
            raise ValueError("alpha and beta must be in (0, 1)")
        self._llr = 0.0
        self._games = 0

    @property
    def upper_bound(self) -> float:
        return math.log((1.0 - self.beta) / self.alpha)

    @property
    def lower_bound(self) -> float:
        return math.log(self.beta / (1.0 - self.alpha))

    @property
    def llr(self) -> float:
        """Current log-likelihood ratio."""
        return self._llr

    @property
    def games(self) -> int:
        return self._games

    def record(self, outcome: float) -> str:
        """Add one game (1 win, 0.5 draw, 0 loss) and return the
        verdict so far."""
        if outcome not in (0.0, 0.5, 1.0):
            raise ValueError(
                f"outcome must be 0, 0.5 or 1, got {outcome}"
            )
        # A draw contributes half a win and half a loss.
        win_part = outcome
        loss_part = 1.0 - outcome
        self._llr += win_part * math.log(self.p1 / self.p0)
        self._llr += loss_part * math.log(
            (1.0 - self.p1) / (1.0 - self.p0)
        )
        self._games += 1
        return self.status()

    def status(self) -> str:
        if self._llr >= self.upper_bound:
            return ACCEPT_H1
        if self._llr <= self.lower_bound:
            return ACCEPT_H0
        return CONTINUE


def sprt_match(
    game,
    subject,
    opponent,
    sprt: Sprt,
    seed: int,
    max_games: int = 200,
    alternate_colours: bool = True,
):
    """Play games until the SPRT stops or ``max_games`` is reached.

    Returns ``(verdict, matchup_result)``; the verdict is ``continue``
    if the budget ran out undecided.
    """
    ladder = SeedLadder(seed, "sprt")
    out = MatchupResult()
    verdict = CONTINUE
    for i in range(max_games):
        colour = 1 if (i % 2 == 0 or not alternate_colours) else -1
        subj = subject(ladder.seed("game", i, "subject"))
        opp = opponent(ladder.seed("game", i, "opponent"))
        record = (
            play_game(game, subj, opp)
            if colour == 1
            else play_game(game, opp, subj)
        )
        verdict = sprt.record(out.add(record, colour))
        if verdict != CONTINUE:
            break
    return verdict, out
